package transport

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// envelope is the one kind of outbound queue entry: a burst of frames toward
// one peer. arena holds the frames' 8-byte wire headers, one per frame, so
// the TCP writer can writev header‖payload pairs and the datagram packer
// lay each header down in front of its payload. An owned burst's payload
// views (bufs) stay in the caller's refcounted buffer until release gives
// it back; a copied frame (Enqueue) is a one-frame envelope whose payload
// is copied into the arena behind its header, with a no-op release. Pooled
// on the outbox's freelist.
type envelope struct {
	bufs    [][]byte
	release func()
	arena   []byte
}

// noRelease is a copied frame's release: its bytes are the envelope's own.
func noRelease() {}

// outbox is the transport-agnostic half of a peer: the bounded outbound
// frame queue, the freelist of envelopes, and the whole writer lifecycle —
// next-batch selection, graceful drain vs immediate kill, dead-then-reap
// exit, the connection holder, resolve→dial→backoff. The TCP Peer and the
// UDPPeer embed it and add only their flavour (dial and flush: stream
// writev on one side, congestion-controlled sendmmsg on the other), so
// Enqueue semantics, drop accounting, and Close behaviour are identical
// across transports by construction.
type outbox struct {
	cfg     Config
	resolve func() (string, bool)

	// The queue and the freelist live under one lock, so a frame costs
	// producers one lock round trip and the writer takes, and later
	// recycles, a whole batch per lock. Nothing allocates while holding
	// it. ring is a circular buffer of QueueDepth entries, head..head+n;
	// queued counts the frames they carry (an owned burst is one entry of
	// many frames).
	mu     sync.Mutex
	ring   []*envelope
	head   int
	n      int
	queued int
	free   []*envelope // recycled envelopes
	// wake holds one token, put there by the producer that takes the queue
	// from empty to non-empty; the writer parks on it only when it found
	// the queue empty.
	wake chan struct{}

	// closed signals shutdown (writer drains then exits); killed is the
	// immediate variant (CloseNow) that also interrupts backoff sleeps.
	closed    chan struct{}
	killed    chan struct{}
	closeOnce sync.Once
	killOnce  sync.Once
	immediate atomic.Bool
	// dead is set by the writer just before its final queue reap, and
	// checked after every successful push: a frame that slips into the
	// queue while the writer is exiting is reaped by whichever side
	// observes it last, so no frame is ever stranded (see pushed).
	dead atomic.Bool
	done chan struct{}

	// drainBy is writer-goroutine-only: the drain deadline, armed by
	// whichever writer code path first observes a graceful close — the
	// run loop, a dial-retry loop, or a backoff sleep — so frames in hand
	// when Close lands keep flushing (and dialing) for the full grace.
	drainBy time.Time
	// backoff, jitter and dialed are writer-goroutine-only too. The jitter
	// RNG is only materialized on the first backoff sleep: a peer whose
	// dials succeed never pays for seeding one (it costs a 607-word table
	// fill, visible in single-core profiles).
	backoff time.Duration
	jitter  lazyRand
	dialed  bool

	// The current connection, under its own lock: shared by the writer
	// (dial, drop) and the shutdown paths (sever, deadline).
	connMu sync.Mutex
	cur    net.Conn

	// ctr is the transport's counter block; key selects this peer's stripe.
	ctr *metrics.ShardedCounter
	key uint64
}

// flavour is what a peer adds to the outbox: how to open a connection to a
// resolved address, and how to put one batch on it. Both run on the writer
// goroutine only. flush consumes the batch (recycleBatch) and does its own
// accounting; on a write error it drops the connection, and the next batch
// re-dials.
type flavour interface {
	dial(addr string) (net.Conn, error)
	flush(c net.Conn, batch []*envelope)
}

func newOutbox(cfg Config, resolve func() (string, bool), ctr *metrics.ShardedCounter) outbox {
	return outbox{
		cfg:     cfg,
		resolve: resolve,
		ctr:     ctr,
		key:     stripeKeys.Add(1),
		backoff: cfg.BackoffMin,
		jitter:  lazyRand{seed: simnet.NextSeed()},
		ring:    make([]*envelope, cfg.QueueDepth),
		free:    make([]*envelope, 0, cfg.QueueDepth+cfg.MaxBatch),
		wake:    make(chan struct{}, 1),
		closed:  make(chan struct{}),
		killed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// take moves up to MaxBatch queued entries onto batch under one lock.
func (o *outbox) take(batch []*envelope) []*envelope {
	o.mu.Lock()
	for o.n > 0 && len(batch) < o.cfg.MaxBatch {
		e := o.ring[o.head]
		o.ring[o.head] = nil
		if o.head++; o.head == len(o.ring) {
			o.head = 0
		}
		o.n--
		o.queued -= len(e.bufs)
		batch = append(batch, e)
	}
	o.mu.Unlock()
	return batch
}

// Enqueue frames data (header ‖ payload, stamped with the sending node)
// into the outbound queue as a one-frame envelope. It never blocks: a full
// queue — or a closed peer — drops the frame, counts it, and returns false.
// data is copied before return and may be reused by the caller immediately.
func (o *outbox) Enqueue(from wire.NodeID, data []byte) bool {
	if len(data) > o.cfg.MaxFrame || o.isClosed() {
		o.count(cDropped, 1)
		return false
	}
	e := o.reserve(1, len(data), noRelease)
	if e == nil {
		return false
	}
	e.arena = e.arena[:HeaderLen+len(data)]
	putHeader(e.arena, from, len(data))
	copy(e.arena[HeaderLen:], data)
	e.bufs = append(e.bufs[:0], e.arena[HeaderLen:])
	return o.pushed(e)
}

// EnqueueOwned hands a burst of frames toward this peer by reference: the
// byte slices in bufs stay owned by the caller's refcounted buffer, and
// release is consumed exactly once on EVERY path — after the writer
// flushes or drops the batch, or right here when the queue is full, the
// peer is closed, or a frame exceeds MaxFrame (all-or-nothing: either the
// whole burst is queued as one transaction or none of it is). Like
// Enqueue it never blocks; false means the burst was shed and counted.
func (o *outbox) EnqueueOwned(from wire.NodeID, bufs [][]byte, release func()) bool {
	n := int64(len(bufs))
	if n == 0 {
		release()
		return true
	}
	if o.isClosed() {
		release()
		o.count(cDropped, n)
		return false
	}
	for _, b := range bufs {
		if len(b) > o.cfg.MaxFrame {
			release()
			o.count(cDropped, n)
			return false
		}
	}
	e := o.reserve(len(bufs), 0, release)
	if e == nil {
		return false
	}
	e.arena = e.arena[:len(bufs)*HeaderLen]
	for i, b := range bufs {
		putHeader(e.arena[i*HeaderLen:], from, len(b))
	}
	e.bufs = append(e.bufs[:0], bufs...)
	return o.pushed(e)
}

// reserve takes mu and an envelope with room for n frames and copied bytes
// of payload, carrying release, for the caller to fill and hand to pushed.
// A recycled envelope keeps its last burst's views until here: the caller
// overwrites bufs[:n], and those past n are cleared.
// Nothing allocates under the lock: a GC assist there would stall every
// other producer, and the writer, behind this one, so an envelope that is
// missing or too small grows with mu let go. A queue found full sheds the
// entry (release consumed, n frames counted dropped) and returns nil with
// mu let go.
func (o *outbox) reserve(n, copied int, release func()) *envelope {
	o.mu.Lock()
	if o.n == len(o.ring) {
		o.shed(int64(n), release)
		return nil
	}
	var e *envelope
	if k := len(o.free); k > 0 {
		e = o.free[k-1]
		o.free[k-1] = nil
		o.free = o.free[:k-1]
	}
	arena := n*HeaderLen + copied
	if e == nil || cap(e.bufs) < n || cap(e.arena) < arena {
		o.mu.Unlock()
		if e == nil {
			e = new(envelope)
		}
		if cap(e.bufs) < n {
			e.bufs = make([][]byte, 0, n)
		}
		if cap(e.arena) < arena {
			e.arena = make([]byte, 0, arena)
		}
		o.mu.Lock()
		if o.n == len(o.ring) {
			o.shed(int64(n), release)
			return nil
		}
	}
	if len(e.bufs) > n {
		clear(e.bufs[n:])
	}
	e.bufs = e.bufs[:0]
	e.release = release
	return e
}

// shed lets go of mu and drops an entry of n frames that found the queue
// full, consuming its release.
func (o *outbox) shed(n int64, release func()) {
	o.mu.Unlock()
	release()
	o.count(cDropped, n)
}

// pushed queues e and lets go of mu; the caller holds mu and has checked
// there is room. The producer that takes the queue from empty hands the
// writer its wake token (one is enough: the writer empties the queue
// before it parks again).
func (o *outbox) pushed(e *envelope) bool {
	n := len(e.bufs) // once e is queued the writer may recycle it
	i := o.head + o.n
	if i >= len(o.ring) {
		i -= len(o.ring)
	}
	o.ring[i] = e
	o.n++
	o.queued += n
	wasEmpty := o.n == 1
	o.mu.Unlock()
	if wasEmpty {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
	o.count(cEnqueued, int64(n))
	if o.dead.Load() {
		// Lost the race with the writer's exit. The writer sets dead
		// strictly before its final reap, so either that reap already
		// drained this entry or this discard will: nothing strands, an
		// owned burst is released once, and the frames are counted
		// dropped instead of claimed sent.
		o.discardQueue()
		return false
	}
	return true
}

// QueueLen reports how many frames are currently queued, an owned burst
// counting each of its frames (diagnostics and SendDelay).
func (o *outbox) QueueLen() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queued
}

// count records delta on the peer's stripe of the transport's counters.
func (o *outbox) count(i int, delta int64) { o.ctr.Add(o.key, i, delta) }

func (o *outbox) isClosed() bool {
	select {
	case <-o.closed:
		return true
	default:
		return false
	}
}

// armDrain returns the drain deadline, starting the grace window on first
// call. Writer-goroutine only; callers have already observed o.closed.
func (o *outbox) armDrain() time.Time {
	if o.drainBy.IsZero() {
		o.drainBy = time.Now().Add(o.cfg.DrainTimeout)
	}
	return o.drainBy
}

// recycleBatch consumes dequeued envelopes: each release fires once
// (outside the lock: it is the caller's code), then every envelope goes
// back on the freelist as it is, under one lock; reserve resets it on the
// producer's core. The freelist is sized for all the queue and a writer's
// batch can hold, so a return never allocates under the lock; what does
// not fit is left to the collector.
func (o *outbox) recycleBatch(batch []*envelope) {
	for _, e := range batch {
		e.release()
	}
	o.mu.Lock()
	for i, e := range batch {
		if len(o.free) < cap(o.free) {
			o.free = append(o.free, e)
		}
		batch[i] = nil
	}
	o.mu.Unlock()
}

// sleepBackoff sleeps the current backoff (±50% jitter, so a fleet of
// peers re-dialing a restarted node does not thundering-herd it), then
// doubles it up to BackoffMax. Returns false if the peer was killed.
// During a drain the sleep is clamped to the drain deadline; outside one,
// a graceful Close wakes the sleep early (once — the caller re-evaluates
// and enters drain mode) so shutdown never waits out a full backoff.
func (o *outbox) sleepBackoff() bool {
	d := o.backoff/2 + time.Duration(o.jitter.Int63n(int64(o.backoff)))
	o.backoff *= 2
	if o.backoff > o.cfg.BackoffMax {
		o.backoff = o.cfg.BackoffMax
	}
	draining := o.isClosed()
	if draining {
		if rem := time.Until(o.armDrain()); rem < d {
			d = rem
		}
		if d <= 0 {
			return false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	if draining {
		// closed is already readable; selecting on it would busy-spin.
		select {
		case <-t.C:
			return true
		case <-o.killed:
			return false
		}
	}
	select {
	case <-t.C:
		return true
	case <-o.closed:
		return true
	case <-o.killed:
		return false
	}
}

// discardQueue empties the outbound queue, counting everything as dropped
// (in frame units) and releasing owned bursts.
func (o *outbox) discardQueue() {
	batch := make([]*envelope, 0, o.cfg.MaxBatch)
	for {
		if batch = o.take(batch[:0]); len(batch) == 0 {
			return
		}
		o.dropBatch(batch)
	}
}

// dropBatch counts a dequeued batch dropped and consumes it.
func (o *outbox) dropBatch(batch []*envelope) {
	for _, e := range batch {
		o.count(cDropped, int64(len(e.bufs)))
	}
	o.recycleBatch(batch)
}

// Close shuts the peer down gracefully: queued frames keep flushing (and
// the writer keeps trying to connect) for up to DrainTimeout before the
// connection is dropped. Blocks until the writer has exited, which the
// drain deadline bounds even against a write wedged on a stalled receiver
// or a full socket buffer — the deadline expiry tightens the connection's
// write deadline out from under it.
func (o *outbox) Close() {
	o.closeOnce.Do(func() {
		close(o.closed)
		time.AfterFunc(o.cfg.DrainTimeout, func() {
			o.connMu.Lock()
			if o.cur != nil {
				o.cur.SetWriteDeadline(time.Now()) //nolint:errcheck
			}
			o.connMu.Unlock()
		})
	})
	<-o.done
}

// CloseNow shuts the peer down immediately: queued frames are dropped and
// any in-flight write, window wait or backoff sleep is interrupted. Used
// when the remote is known dead (churn injection, detach).
func (o *outbox) CloseNow() {
	o.immediate.Store(true)
	o.killOnce.Do(func() {
		close(o.killed)
		o.dropConn()
	})
	o.closeOnce.Do(func() { close(o.closed) })
	<-o.done
}

func (o *outbox) conn() net.Conn {
	o.connMu.Lock()
	defer o.connMu.Unlock()
	return o.cur
}

func (o *outbox) dropConn() {
	o.connMu.Lock()
	c := o.cur
	o.cur = nil
	o.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// run is the writer: the only goroutine that dials, writes, or closes the
// peer's connection. Everything it takes off the queue in one wakeup (up to
// MaxBatch) goes to the flavour as one batch, so a burst of n frames costs
// ~n/MaxBatch syscalls instead of n.
func (o *outbox) run(f flavour) {
	defer func() {
		// dead-then-reap, strictly in this order: pushed's post-push
		// check on dead guarantees a frame that slips in during exit is
		// discarded by one side or the other, never stranded (a done-based
		// check would leave an instruction-wide strand window between the
		// final reap and close(done) — the Close-race test pins this).
		o.dead.Store(true)
		o.dropConn()
		o.discardQueue()
		close(o.done)
	}()
	batch := make([]*envelope, 0, o.cfg.MaxBatch)
	for {
		var ok bool
		if batch, ok = o.next(batch[:0]); !ok {
			return
		}
		if c := o.ensureConn(f); c != nil {
			f.flush(c, batch)
			continue
		}
		o.dropBatch(batch)
	}
}

// next blocks for the next batch. It is the shutdown ladder: a kill reaps
// the queue and stops; a graceful close keeps handing out batches
// (flushing, dialing included, continues) until the queue empties or the
// drain deadline passes. false means the writer must exit.
func (o *outbox) next(batch []*envelope) ([]*envelope, bool) {
	for !o.isClosed() {
		if batch = o.take(batch); len(batch) > 0 {
			return batch, true
		}
		select {
		case <-o.wake:
		case <-o.closed:
		}
	}
	if o.immediate.Load() {
		return batch, false // the exit path reaps the queue
	}
	drainDeadline := o.armDrain()
	if batch = o.take(batch); len(batch) == 0 {
		return batch, false // queue drained; graceful exit
	}
	if time.Now().After(drainDeadline) {
		o.dropBatch(batch)
		return batch[:0], false
	}
	return batch, true
}

// ensureConn returns the live connection, resolving and dialing (with
// jittered exponential backoff between attempts) if there is none. It gives
// up — returning nil — only when the peer is closing: immediately for
// CloseNow, at the drain deadline for a graceful Close (armed here if this
// dial loop is where the close is first observed, so a batch in hand when
// Close lands still gets its full drain grace to find a connection).
func (o *outbox) ensureConn(f flavour) net.Conn {
	if c := o.conn(); c != nil {
		return c
	}
	for {
		if o.immediate.Load() {
			return nil
		}
		if o.isClosed() && time.Now().After(o.armDrain()) {
			return nil
		}
		if addr, ok := o.resolve(); ok {
			if c, err := f.dial(addr); err == nil {
				o.backoff = o.cfg.BackoffMin
				o.connMu.Lock()
				o.cur = c
				o.connMu.Unlock()
				o.count(cDials, 1)
				if o.dialed {
					o.count(cReconnects, 1)
				}
				o.dialed = true
				if o.immediate.Load() {
					// Lost the race with CloseNow's dropConn: do not hand
					// a conn back to a writer that is about to exit.
					o.dropConn()
					return nil
				}
				return c
			}
		}
		if !o.sleepBackoff() {
			return nil
		}
	}
}

// lazyRand defers seeding a math/rand generator until the first draw.
type lazyRand struct {
	seed int64
	rng  *rand.Rand
}

func (l *lazyRand) Int63n(n int64) int64 {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng.Int63n(n)
}
