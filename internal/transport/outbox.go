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

// outFrame is one outbound queue entry: either a copied frame (buf, from
// the freelist, header already prepended) or an owned batch of frames
// sharing one refcounted backing buffer (ob). Exactly one of the two is
// set.
type outFrame struct {
	buf []byte
	ob  *ownedBatch
}

// frames reports how many wire frames the entry carries (an owned batch
// counts each of its frames; stats stay in frame units either way).
func (f outFrame) frames() int64 {
	if f.ob != nil {
		return int64(len(f.ob.bufs))
	}
	return 1
}

// ownedBatch carries a burst of frames toward one peer by reference: the
// payload views stay in the caller's refcounted buffer, release gives the
// reference back, and hdrs is a pre-built arena of 8-byte wire headers
// (one per frame) so the TCP writer can writev header‖payload pairs
// without copying either. Pooled via outbox.freeOB.
type ownedBatch struct {
	from    wire.NodeID
	bufs    [][]byte
	release func()
	hdrs    []byte
}

// outbox is the transport-agnostic half of a peer: the bounded outbound
// frame queue, the freelist of frame buffers, and the whole writer
// lifecycle — next-batch selection, graceful drain vs immediate kill,
// dead-then-reap exit, the connection holder, resolve→dial→backoff. The TCP
// Peer and the UDPPeer embed it and add only their flavour (dial and flush:
// stream writev on one side, congestion-controlled sendmmsg on the other),
// so Enqueue semantics, drop accounting, and Close behaviour are identical
// across transports by construction.
type outbox struct {
	cfg     Config
	resolve func() (string, bool)

	out    chan outFrame    // framed buffers / owned batches awaiting the writer
	free   chan []byte      // recycled copied-frame buffers
	freeOB chan *ownedBatch // recycled owned-batch envelopes

	// closed signals shutdown (writer drains then exits); killed is the
	// immediate variant (CloseNow) that also interrupts backoff sleeps.
	closed    chan struct{}
	killed    chan struct{}
	closeOnce sync.Once
	killOnce  sync.Once
	immediate atomic.Bool
	// dead is set by the writer just before its final queue reap, and
	// checked by Enqueue after a successful send: a frame that slips into
	// the queue while the writer is exiting is reaped by whichever side
	// observes it last, so no frame is ever stranded (see Enqueue).
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
	flush(c net.Conn, batch []outFrame)
}

func newOutbox(cfg Config, resolve func() (string, bool), ctr *metrics.ShardedCounter) outbox {
	return outbox{
		cfg:     cfg,
		resolve: resolve,
		ctr:     ctr,
		key:     stripeKeys.Add(1),
		backoff: cfg.BackoffMin,
		jitter:  lazyRand{seed: simnet.NextSeed()},
		out:     make(chan outFrame, cfg.QueueDepth),
		free:    make(chan []byte, cfg.QueueDepth+cfg.MaxBatch),
		freeOB:  make(chan *ownedBatch, cfg.QueueDepth),
		closed:  make(chan struct{}),
		killed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Enqueue frames data (header ‖ payload, stamped with the sending node)
// into the outbound queue. It never blocks: a full queue — or a closed peer
// — drops the frame, counts it, and returns false. data is copied before
// return and may be reused by the caller immediately.
func (o *outbox) Enqueue(from wire.NodeID, data []byte) bool {
	if len(data) > o.cfg.MaxFrame || o.isClosed() {
		o.count(cDropped, 1)
		return false
	}
	var buf []byte
	select {
	case buf = <-o.free:
	default:
	}
	var hdr [HeaderLen]byte
	putHeader(hdr[:], from, len(data))
	buf = append(buf[:0], hdr[:]...)
	buf = append(buf, data...)
	select {
	case o.out <- outFrame{buf: buf}:
		o.count(cEnqueued, 1)
		if o.dead.Load() {
			// Lost the race with the writer's exit. The writer sets dead
			// strictly before its final reap, so either that reap already
			// drained this frame or this discard will: nothing strands,
			// and the frame is counted dropped instead of claimed sent.
			o.discardQueue()
			return false
		}
		return true
	default:
		o.recycle(buf)
		o.count(cDropped, 1)
		return false
	}
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
	var ob *ownedBatch
	select {
	case ob = <-o.freeOB:
	default:
		ob = &ownedBatch{}
	}
	ob.from = from
	ob.bufs = append(ob.bufs[:0], bufs...)
	ob.release = release
	ob.hdrs = ob.hdrs[:0]
	for _, b := range bufs {
		var hdr [HeaderLen]byte
		putHeader(hdr[:], from, len(b))
		ob.hdrs = append(ob.hdrs, hdr[:]...)
	}
	select {
	case o.out <- outFrame{ob: ob}:
		o.count(cEnqueued, n)
		if o.dead.Load() {
			// Same exit race as Enqueue: one side's reap consumes the
			// batch (and its release) — nothing strands, nothing double-
			// releases.
			o.discardQueue()
			return false
		}
		return true
	default:
		o.finishOwned(ob)
		o.count(cDropped, n)
		return false
	}
}

// finishOwned consumes an owned batch: fires its release exactly once,
// unpins the payload views, and recycles the envelope.
func (o *outbox) finishOwned(ob *ownedBatch) {
	ob.release()
	ob.release = nil
	for i := range ob.bufs {
		ob.bufs[i] = nil
	}
	ob.bufs = ob.bufs[:0]
	ob.from = 0
	select {
	case o.freeOB <- ob:
	default:
	}
}

// finish returns a dequeued entry's resources: freelist for copied
// frames, release+envelope recycle for owned batches.
func (o *outbox) finish(f outFrame) {
	if f.ob != nil {
		o.finishOwned(f.ob)
		return
	}
	o.recycle(f.buf)
}

// QueueLen reports how many frames are currently queued (diagnostics).
func (o *outbox) QueueLen() int { return len(o.out) }

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

func (o *outbox) recycle(buf []byte) {
	select {
	case o.free <- buf:
	default:
	}
}

func (o *outbox) recycleBatch(batch []outFrame) {
	for i, f := range batch {
		o.finish(f)
		batch[i] = outFrame{}
	}
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
// (in frame units) and releasing owned batches.
func (o *outbox) discardQueue() {
	for {
		select {
		case f := <-o.out:
			o.count(cDropped, f.frames())
			o.finish(f)
		default:
			return
		}
	}
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
// peer's connection. Everything it pulls off the queue in one wakeup (up to
// MaxBatch) goes to the flavour as one batch, so a burst of n frames costs
// ~n/MaxBatch syscalls instead of n.
func (o *outbox) run(f flavour) {
	defer func() {
		// dead-then-reap, strictly in this order: Enqueue's post-send
		// check on dead guarantees a frame that slips in during exit is
		// discarded by one side or the other, never stranded (a done-based
		// check would leave an instruction-wide strand window between the
		// final reap and close(done) — the Close-race test pins this).
		o.dead.Store(true)
		o.dropConn()
		o.discardQueue()
		close(o.done)
	}()
	batch := make([]outFrame, 0, o.cfg.MaxBatch)
	for {
		first, ok := o.next()
		if !ok {
			return
		}
		batch = append(batch[:0], first)
	fill:
		for len(batch) < o.cfg.MaxBatch {
			select {
			case fr := <-o.out:
				batch = append(batch, fr)
			default:
				break fill
			}
		}
		if c := o.ensureConn(f); c != nil {
			f.flush(c, batch)
			continue
		}
		for _, fr := range batch {
			o.count(cDropped, fr.frames())
		}
		o.recycleBatch(batch)
	}
}

// next blocks for the batch's first entry. It is the shutdown ladder: a
// kill reaps the queue and stops; a graceful close keeps handing out
// entries (flushing, dialing included, continues) until the queue empties
// or the drain deadline passes. false means the writer must exit.
func (o *outbox) next() (outFrame, bool) {
	for !o.isClosed() {
		select {
		case f := <-o.out:
			return f, true
		case <-o.closed:
		}
	}
	if o.immediate.Load() {
		return outFrame{}, false // the exit path reaps the queue
	}
	drainDeadline := o.armDrain()
	select {
	case f := <-o.out:
		if time.Now().After(drainDeadline) {
			o.count(cDropped, f.frames())
			o.finish(f)
			return outFrame{}, false
		}
		return f, true
	default:
		return outFrame{}, false // queue drained; graceful exit
	}
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
