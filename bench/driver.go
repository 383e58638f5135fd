package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"infoslicing/internal/relay"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// The overlay is best effort: a round that loses more than d'−d of its slices
// at some stage is gone, and nothing below the application sends it again. So
// the driver does what a client of such an overlay does. A transmission
// unanswered for attemptTimeout is sent again as a new message of the same
// operation, on whatever flow the transfer has by then, and the operation is
// done when the first copy is verified; its latency counts from the first
// transmission. attemptTimeout is longer than the relays' GapWait (600 ms: a
// message queued behind a lost round is late, not lost) and shorter than
// dataTTL (the copy reaches the relays before they evict a flow gone quiet).
// An operation still unanswered after maxAttempts transmissions has failed.
// Nothing in the driver ever waits longer than that on one.
const (
	attemptTimeout = 800 * time.Millisecond
	maxAttempts    = 5
)

// messageTimeout is how long the driver waits for what it does not send
// again: a new flow's primers, a probe's frames.
const messageTimeout = 2 * time.Second

// msgHeader is flow index, sequence number and checksum; the body follows.
const msgHeader = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloads makes and checks message bodies. A body is a window into a
// seeded random template, so bodies differ from message to message without
// the generator drawing msgBytes random bytes for each.
type payloads struct {
	seed     uint64
	size     int
	template []byte
}

func newPayloads(seed int64, size int) *payloads {
	if size < msgHeader {
		size = msgHeader
	}
	p := &payloads{seed: uint64(seed), size: size, template: make([]byte, 2*size)}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(p.template)
	return p
}

func (p *payloads) sum(flow, seq uint32, body []byte) uint64 {
	key := (p.seed+1)*0x9e3779b97f4a7c15 ^ uint64(flow)<<32 ^ uint64(seq)
	return uint64(crc32.Checksum(body, castagnoli)) ^ key
}

// fill writes message seq of a flow into buf (len p.size).
func (p *payloads) fill(buf []byte, flow, seq uint32) {
	body := buf[msgHeader:]
	off := int(seq*13) % p.size
	copy(body, p.template[off:off+len(body)])
	binary.BigEndian.PutUint32(buf[0:], flow)
	binary.BigEndian.PutUint32(buf[4:], seq)
	binary.BigEndian.PutUint64(buf[8:], p.sum(flow, seq, body))
}

// check verifies a delivered message and returns its sequence number.
func (p *payloads) check(data []byte, flow uint32) (seq uint32, ok bool) {
	if len(data) != p.size {
		return 0, false
	}
	seq = binary.BigEndian.Uint32(data[4:])
	if binary.BigEndian.Uint32(data[0:]) != flow {
		return seq, false
	}
	return seq, binary.BigEndian.Uint64(data[8:]) == p.sum(flow, seq, data[msgHeader:])
}

// flow is the driver's side of one anonymous flow: the sender, where its
// messages come out, and the messages in flight.
type flow struct {
	slot *slot
	gen  int
	snd  *source.Sender

	mu       sync.Mutex
	nextSeq  uint32
	inflight map[uint32]sent
	expired  map[uint32]sent // timed out, may still arrive late
	retired  time.Time       // when the slot moved to its next flow; zero while current
}

// op is one operation of a data workload: a message to deliver, however many
// transmissions that takes.
type op struct {
	slot   *slot
	at     time.Time // closed loop: just before the first Send; open loop: when it was due
	window int
	// settled is set once, by the first verified copy or by the sweeper
	// writing the operation off; whoever sets it returns the window slot.
	settled atomic.Bool
}

// sent is one transmission in flight.
type sent struct {
	op  *op       // nil for a primer: sent by the renewer to prove a new flow, belongs to no window
	at  time.Time // when this copy was sent
	try int       // 0 for the first transmission
}

// retry is a transmission that went unanswered, on its way back to the
// generator that owns the slot: only that goroutine sends on the slot's flow,
// because the rounds of two concurrent Sends would interleave.
type retry struct {
	op  *op
	try int
}

// slot is one of a data workload's concurrent transfers. Its flow is
// replaced by a fresh one to the same destination every flowMsgs messages,
// dialled ahead of time, so the workload is a steady population of bounded
// transfers and not a handful of flows that only ever grow older.
type slot struct {
	idx      int
	dest     *relay.Node
	srcs     []wire.NodeID
	cur      atomic.Pointer[flow]
	renewing atomic.Bool
}

// base numbers a flow's messages for tracing: generation in the high bits,
// so message numbers of one slot never repeat.
func (f *flow) base() uint32 { return uint32(f.gen) << 20 }

// windowStats accumulates one measurement window.
type windowStats struct {
	attempted int64
	failed    int64
	resent    int64 // transmissions after the first, charged like failed
	delivered int64
	bytes     int64
	latUs     []float64
	lateUs    []float64 // open loop: how late the generator sent
	sendUs    []float64 // traced window: duration of Sender.Send
	estMs     []float64 // churn: Establish call → established
	wall      time.Duration
	cpu       time.Duration
}

// recorder attributes operations to the window they happened in. Window -1
// (warm-up, drain) is discarded.
type recorder struct {
	mu      sync.Mutex
	cur     int
	windows []*windowStats
	corrupt atomic.Int64 // delivered messages that failed verification
	stale   atomic.Int64 // copies that arrived after their operation was settled
}

func (r *recorder) at(w int) *windowStats {
	if w < 0 || w >= len(r.windows) {
		return nil
	}
	return r.windows[w]
}

func (r *recorder) attempt(lateUs float64, open bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ws := r.at(r.cur); ws != nil {
		ws.attempted++
		if open {
			ws.lateUs = append(ws.lateUs, lateUs)
		}
	}
	return r.cur
}

func (r *recorder) sendTook(d time.Duration) {
	r.mu.Lock()
	if ws := r.at(r.cur); ws != nil {
		ws.sendUs = append(ws.sendUs, float64(d)/1e3)
	}
	r.mu.Unlock()
}

func (r *recorder) established(d time.Duration) {
	r.mu.Lock()
	if ws := r.at(r.cur); ws != nil {
		ws.estMs = append(ws.estMs, float64(d)/1e6)
	}
	r.mu.Unlock()
}

// deliver credits a verified message to the current window.
func (r *recorder) deliver(lat time.Duration, bytes int) {
	r.mu.Lock()
	if ws := r.at(r.cur); ws != nil {
		ws.delivered++
		ws.bytes += int64(bytes)
		ws.latUs = append(ws.latUs, float64(lat)/1e3)
	}
	r.mu.Unlock()
}

// fail charges a lost operation to the window it was first sent in.
func (r *recorder) fail(sentWindow int) {
	r.mu.Lock()
	if ws := r.at(sentWindow); ws != nil {
		ws.failed++
	}
	r.mu.Unlock()
}

// resend charges a retransmission to the window its operation began in.
func (r *recorder) resend(sentWindow int) {
	r.mu.Lock()
	if ws := r.at(sentWindow); ws != nil {
		ws.resent++
	}
	r.mu.Unlock()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pollPause yields between polls of a condition another goroutine will make
// true: first by yielding the processor, which costs nothing when the box is
// busy, then by short sleeps so an idle wait does not spin.
func pollPause(spins int) {
	if spins < 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(50 * time.Microsecond)
}

// run is one workload's measurement on one cell.
type run struct {
	c   *cell
	wl  *workload
	pay *payloads
	rec *recorder
	tr  *tracer // nil when the run is not traced

	attempts int // transmissions an operation gets before it has failed

	stopGen chan struct{}  // closed first: no new operations; dialers finish theirs
	stop    chan struct{}  // closed after the drain: everything else stops
	genWG   sync.WaitGroup // the churn dialers
	wg      sync.WaitGroup

	errOnce sync.Once
	err     error // first error of a generator; the run is void

	// Closed loop: ready[g] carries the index of a slot owned by generator
	// g that has a free window slot.
	ready []chan int
	// retry[g] carries unanswered transmissions of generator g's slots.
	retry []chan retry
	// renew carries slots whose flow is due for replacement.
	renew chan *slot

	// routes says whose a delivered message is, by the flow id it came out
	// under: a data flow, or the churn dialer waiting for it. live is every
	// data flow that may still have messages in flight.
	mu     sync.RWMutex
	routes map[wire.FlowID]route
	live   []*flow
}

type route struct {
	f  *flow
	ch chan relay.Message
}

func newRun(c *cell, tr *tracer, windows int) *run {
	r := &run{c: c, wl: c.wl, pay: newPayloads(c.seed, c.wl.msgBytes), tr: tr,
		attempts: maxAttempts,
		stopGen:  make(chan struct{}), stop: make(chan struct{}),
		// Every slot can be waiting for renewal at once, and no more.
		renew:  make(chan *slot, len(c.slots)),
		routes: make(map[wire.FlowID]route)}
	r.rec = &recorder{cur: -1}
	for i := 0; i < windows; i++ {
		r.rec.windows = append(r.rec.windows, &windowStats{})
	}
	for _, sl := range c.slots {
		r.adopt(sl.cur.Load())
	}
	return r
}

// adopt makes a flow's deliveries and timeouts the run's business.
func (r *run) adopt(f *flow) {
	g := f.snd.Graph()
	r.mu.Lock()
	r.routes[g.Flows[g.Dest]] = route{f: f}
	r.live = append(r.live, f)
	r.mu.Unlock()
	if r.tr != nil {
		r.tr.mapFlows(g.Flows, g.Dest, f.slot.idx, f.base())
	}
}

// abort records why a generator gave up; runWorkload reports it.
func (r *run) abort(err error) {
	r.errOnce.Do(func() { r.err = err })
}

// generators is how many goroutines make load: at most one per processor.
func (r *run) generators() int {
	return min(runtime.GOMAXPROCS(0), r.wl.flows)
}

// start launches receivers, the timeout sweeper and the load generators.
func (r *run) start() {
	// One receiver per relay, demultiplexing by flow id: two flows ending at
	// one node would otherwise drain each other's Received().
	for _, n := range r.c.nodes {
		r.wg.Add(1)
		go r.receive(n)
	}
	g := r.generators()
	if r.wl.churn {
		for d := 0; d < g; d++ {
			r.genWG.Add(1)
			go r.dial(d)
		}
		return
	}
	r.retry = make([]chan retry, g)
	for i := range r.retry {
		// Far more than a closed loop can have in flight, and seconds of an
		// open loop's traffic; the sweeper keeps what does not fit for its
		// next tick.
		r.retry[i] = make(chan retry, 4096)
	}
	r.wg.Add(2)
	go r.sweep()
	go r.renewer()
	if r.wl.rate > 0 {
		for i := 0; i < g; i++ {
			r.wg.Add(1)
			go r.generateOpen(i, g)
		}
		return
	}
	r.ready = make([]chan int, g)
	for i := range r.ready {
		// Sized to every window slot of every transfer the generator owns:
		// a credit is never dropped and returning one never blocks.
		r.ready[i] = make(chan int, (len(r.c.slots)/g+1)*r.wl.window)
	}
	for _, sl := range r.c.slots {
		for k := 0; k < r.wl.window; k++ {
			r.ready[sl.idx%g] <- sl.idx
		}
	}
	for i := 0; i < g; i++ {
		r.wg.Add(1)
		go r.generateClosed(i)
	}
}

// halt stops new operations, lets those in flight arrive — sent again where
// they have to be — or be written off by the sweeper, then stops everything
// else.
func (r *run) halt() {
	close(r.stopGen)
	r.genWG.Wait()
	deadline := time.Now().Add(time.Duration(r.attempts)*attemptTimeout + messageTimeout)
	for r.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(r.stop)
	r.wg.Wait()
}

// send begins the next operation of a slot. due is when an open loop meant
// to send it (zero for a closed loop): latency is counted from then, so a
// stall is charged to every message it delays.
func (r *run) send(sl *slot, buf []byte, due time.Time) error {
	now := time.Now()
	at, lateUs := now, 0.0
	if !due.IsZero() {
		at, lateUs = due, float64(now.Sub(due))/1e3
	}
	w := r.rec.attempt(lateUs, !due.IsZero())
	return r.transmit(&op{slot: sl, at: at, window: w}, 0, now, buf)
}

// resend transmits an operation again, unless a late copy settled it on the
// way here.
func (r *run) resend(rt retry, buf []byte) error {
	if rt.op.settled.Load() {
		return nil
	}
	return r.transmit(rt.op, rt.try, time.Now(), buf)
}

// transmit emits one copy of an operation, as the next message of its
// slot's current flow.
func (r *run) transmit(o *op, try int, now time.Time, buf []byte) error {
	sl := o.slot
	f := sl.cur.Load()
	seq := f.claim(sent{op: o, at: now, try: try})
	if r.wl.flowMsgs > 0 && int(seq) >= r.wl.flowMsgs/2 && sl.renewing.CompareAndSwap(false, true) {
		r.renew <- sl
	}
	r.pay.fill(buf, uint32(sl.idx), seq)
	if r.tr != nil && r.tr.on() {
		t0 := time.Now()
		err := f.snd.Send(buf)
		t1 := time.Now()
		r.rec.sendTook(t1.Sub(t0))
		r.tr.driverSpan(evSourceSend, sl.idx, f.base()+seq, t0, t1)
		return err
	}
	return f.snd.Send(buf)
}

// claim takes the flow's next sequence number and puts the message in
// flight.
func (f *flow) claim(s sent) uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.nextSeq
	f.nextSeq++
	f.inflight[seq] = s
	return seq
}

func (r *run) generateClosed(g int) {
	defer r.wg.Done()
	buf := make([]byte, r.pay.size)
	for {
		var err error
		select {
		case <-r.stopGen:
			r.drain(g, buf)
			return
		case rt := <-r.retry[g]:
			err = r.resend(rt, buf)
		case idx := <-r.ready[g]:
			err = r.send(r.c.slots[idx], buf, time.Time{})
		}
		if err != nil {
			r.abort(fmt.Errorf("send: %w", err))
			return
		}
	}
}

// drain is what a generator does between stopGen and stop: nothing new, but
// what is in flight is still sent again when it has to be.
func (r *run) drain(g int, buf []byte) {
	for {
		select {
		case <-r.stop:
			return
		case rt := <-r.retry[g]:
			if err := r.resend(rt, buf); err != nil {
				r.abort(fmt.Errorf("send: %w", err))
				return
			}
		}
	}
}

// generateOpen sends on a schedule whatever the overlay does: generator g of
// n owns slots g, g+n, ...; a slot's messages are due every 1/rate seconds,
// offset so the slots do not fire together. It sends at most one
// retransmission between two scheduled messages, so a burst of losses comes
// back as a doubled rate for a moment and not as a second burst.
func (r *run) generateOpen(g, n int) {
	defer r.wg.Done()
	var mine []*slot
	for i := g; i < len(r.c.slots); i += n {
		mine = append(mine, r.c.slots[i])
	}
	period := time.Duration(float64(time.Second) / r.wl.rate)
	start := time.Now().Add(time.Millisecond)
	due := make([]time.Time, len(mine))
	for i, sl := range mine {
		due[i] = start.Add(period * time.Duration(sl.idx) / time.Duration(len(r.c.slots)))
	}
	buf := make([]byte, r.pay.size)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		first := 0
		for i := range due {
			if due[i].Before(due[first]) {
				first = i
			}
		}
		var err error
		timer.Reset(max(0, time.Until(due[first])))
		select {
		case <-r.stopGen:
			r.drain(g, buf)
			return
		case rt := <-r.retry[g]:
			if err = r.resend(rt, buf); err == nil && time.Now().Before(due[first]) {
				continue
			}
		case <-timer.C:
		}
		if err == nil {
			err = r.send(mine[first], buf, due[first])
		}
		if err != nil {
			r.abort(fmt.Errorf("send: %w", err))
			return
		}
		due[first] = due[first].Add(period)
	}
}

// renewer replaces flows that are half way through their transfer: it
// dials the next flow to the same destination, proves it with a few
// messages of its own — which also lets a degraded graph find out which
// parent is dead before real traffic waits on it — and only then switches
// the slot over. The old flow keeps carrying traffic until that moment, so
// neither loop ever waits on a dial.
func (r *run) renewer() {
	defer r.wg.Done()
	buf := make([]byte, r.pay.size)
	for {
		select {
		case <-r.stop:
			return
		case sl := <-r.renew:
			old := sl.cur.Load()
			f, err := r.dialProven(sl, old.gen+1, buf)
			if err == errStopped {
				return
			}
			if err != nil {
				r.abort(fmt.Errorf("renew slot %d: %w", sl.idx, err))
				return
			}
			sl.cur.Store(f)
			old.retire()
			r.c.retiredSendDrops.Add(old.snd.SendDrops())
			sl.renewing.Store(false)
		}
	}
}

// dialProven dials a slot's next flow and proves it. A set-up packet or a
// primer can be lost like any message; then that flow is dropped and the
// next graph tried.
func (r *run) dialProven(sl *slot, gen int, buf []byte) (*flow, error) {
	for try := 0; ; try++ {
		f, err := r.c.dialFlow(sl, gen+try, messageTimeout)
		if err == nil {
			r.adopt(f)
			if err = r.prime(f, buf); err == nil {
				return f, nil
			}
			f.retire()
		}
		select {
		case <-r.stop:
			return nil, errStopped
		default:
		}
		if try+1 == r.attempts {
			return nil, err
		}
	}
}

// errStopped is what a renewal reports when the run ended under it: nobody
// is left to receive its primers, and nobody needs the flow.
var errStopped = errors.New("the run stopped")

func (f *flow) retire() {
	f.mu.Lock()
	f.retired = time.Now()
	f.mu.Unlock()
}

const primers = 3

// prime sends a new flow's first messages and waits for them. They are
// verified like any other but belong to no window.
func (r *run) prime(f *flow, buf []byte) error {
	for i := 0; i < primers; i++ {
		seq := f.claim(sent{at: time.Now()})
		r.pay.fill(buf, uint32(f.slot.idx), seq)
		if err := f.snd.Send(buf); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(messageTimeout + 200*time.Millisecond)
	for spins := 0; ; spins++ {
		f.mu.Lock()
		left, lost := len(f.inflight), len(f.expired)
		f.mu.Unlock()
		if lost > 0 || time.Now().After(deadline) {
			return fmt.Errorf("new flow to %d lost its first messages", f.slot.dest.ID())
		}
		if left == 0 {
			return nil
		}
		select {
		case <-r.stop:
			return errStopped
		default:
		}
		pollPause(spins + 64)
	}
}

// receive takes what one relay delivers.
func (r *run) receive(n *relay.Node) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case m := <-n.Received():
			r.accept(m, time.Now())
		}
	}
}

// accept verifies a delivered message; the first copy of an operation
// settles it, is credited to the current window and returns its window slot.
func (r *run) accept(m relay.Message, now time.Time) {
	r.mu.RLock()
	rt, known := r.routes[m.Flow]
	r.mu.RUnlock()
	switch {
	case !known && r.wl.churn:
		r.rec.stale.Add(1) // its dialer is done with it
		return
	case !known:
		r.rec.corrupt.Add(1)
		return
	case rt.ch != nil:
		select {
		case rt.ch <- m:
		default:
			r.rec.corrupt.Add(1) // more messages on a flow than it was sent
		}
		return
	}
	f := rt.f
	seq, ok := r.pay.check(m.Data, uint32(f.slot.idx))
	if !ok {
		r.rec.corrupt.Add(1)
		return
	}
	f.mu.Lock()
	s, sentIt := f.inflight[seq]
	delete(f.inflight, seq)
	if !sentIt {
		s, sentIt = f.expired[seq]
		delete(f.expired, seq)
	}
	f.mu.Unlock()
	switch {
	case !sentIt:
		r.rec.corrupt.Add(1) // a duplicate, or a sequence number never sent
	case s.op == nil:
		// a primer: proves the new flow, counts for nothing
	case !s.op.settled.CompareAndSwap(false, true):
		r.rec.stale.Add(1) // another copy was first, or it came after the last timeout
	default:
		r.rec.deliver(now.Sub(s.op.at), len(m.Data))
		if r.tr != nil && r.tr.on() {
			r.tr.driverSpan(evDelivered, f.slot.idx, f.base()+seq, s.op.at, now)
		}
		r.credit(f.slot)
	}
}

// credit returns a window slot of a closed loop.
func (r *run) credit(sl *slot) {
	if r.ready != nil {
		r.ready[sl.idx%len(r.ready)] <- sl.idx
	}
}

// sweep hands transmissions unanswered for attemptTimeout back to their
// generator, writes off operations that have had all their attempts — so a
// lost message costs its slot one window slot for a few seconds and never
// more — and forgets retired flows once nothing of theirs is in flight.
func (r *run) sweep() {
	defer r.wg.Done()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-tick.C:
			r.mu.Lock()
			live := append([]*flow(nil), r.live...)
			r.mu.Unlock()
			var done []*flow
			for _, f := range live {
				f.mu.Lock()
				for seq, s := range f.inflight {
					if s.op == nil {
						if now.Sub(s.at) >= messageTimeout {
							delete(f.inflight, seq)
							f.expired[seq] = s // prime reports it
						}
						continue
					}
					if now.Sub(s.at) < attemptTimeout {
						continue
					}
					if s.op.settled.Load() {
						// An earlier copy got there after all; this one may yet.
						delete(f.inflight, seq)
						f.expired[seq] = s
						continue
					}
					if s.try+1 < r.attempts {
						select {
						case r.retry[f.slot.idx%len(r.retry)] <- retry{op: s.op, try: s.try + 1}:
							r.rec.resend(s.op.window)
						default:
							continue // the generator is behind; next tick
						}
					} else if s.op.settled.CompareAndSwap(false, true) {
						r.rec.fail(s.op.window)
						r.credit(f.slot)
					}
					delete(f.inflight, seq)
					f.expired[seq] = s
					// A client whose message timed out gives the circuit up
					// and dials another; so does the driver.
					if f.retired.IsZero() && f.slot.renewing.CompareAndSwap(false, true) {
						r.renew <- f.slot
					}
				}
				// A generator that loaded the flow just before the slot moved
				// on may still send on it once, so it stays on the books for
				// a timeout after retiring.
				if !f.retired.IsZero() && now.Sub(f.retired) > messageTimeout && len(f.inflight) == 0 {
					done = append(done, f)
				}
				f.mu.Unlock()
			}
			for _, f := range done {
				r.forget(f)
			}
		}
	}
}

// forget drops a retired flow from the run's books. Its route stays a
// little longer than it: a straggler must find the flow to be told it is
// late, and the map entry costs nothing.
func (r *run) forget(f *flow) {
	r.mu.Lock()
	for i, x := range r.live {
		if x == f {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// runFor lets the load run for d outside any window: the warm-up, in which
// lazily dialled connections, caches, the relays' tables and the heap reach
// their steady state, and the moment of load after the last window.
func (r *run) runFor(d time.Duration) {
	select {
	case <-time.After(d):
	case <-r.stopGen:
	}
}

// outstanding counts messages sent and neither delivered nor written off.
func (r *run) outstanding() int {
	r.mu.Lock()
	live := append([]*flow(nil), r.live...)
	r.mu.Unlock()
	n := 0
	for _, f := range live {
		f.mu.Lock()
		n += len(f.inflight)
		f.mu.Unlock()
	}
	return n
}

// dial is one churn dialer: build a graph, establish it, prove it with one
// message, abandon it to the relays' TTL, again. One operation is one proven
// flow; its latency runs from the start of core.Build to the verified
// message. A flow that is not established, or whose message has not arrived,
// within attemptTimeout is abandoned like the others and the operation tries
// again with a new graph, as a client would; that is its retransmission.
func (r *run) dial(d int) {
	defer r.genWG.Done()
	c, wl := r.c, r.wl
	rng := rand.New(rand.NewSource(c.seed*9_000_011 + int64(d)))
	srcs, err := c.attachSources(2*firstSource + d*100)
	if err != nil {
		r.abort(err)
		return
	}
	buf := make([]byte, r.pay.size)
	// One message per flow, and a flow's route is gone before the next is
	// dialled; the room is for stragglers that slip in as a route is taken
	// down, so that receive never blocks on this.
	inbox := make(chan relay.Message, r.attempts)
	wait := time.NewTimer(time.Hour)
	defer wait.Stop()
	seq := uint32(0) // one per flow dialled
	for {
		select {
		case <-r.stopGen:
			return
		default:
		}
		t0 := time.Now()
		w := r.rec.attempt(0, false)
		ok := false
		for try := 0; try < r.attempts && !ok; try, seq = try+1, seq+1 {
			if try > 0 {
				r.rec.resend(w)
			}
			relays := c.pickRelays(rng, 0, 0)
			g, err := buildGraph(wl, relays, srcs, rng.Int63(), relays[0], 0)
			if err != nil {
				r.abort(err)
				return
			}
			snd := source.New(c.net, g, source.Config{ChunkPayload: wl.chunkPayload}, rand.New(rand.NewSource(rng.Int63())))
			traced := r.tr != nil && r.tr.on()
			if traced {
				r.tr.mapFlows(g.Flows, g.Dest, d, seq)
			}
			destFlow := g.Flows[g.Dest]
			r.mu.Lock()
			r.routes[destFlow] = route{ch: inbox}
			r.mu.Unlock()

			if est, err := c.establishWait(snd, attemptTimeout); err == nil {
				r.rec.established(est)
				r.pay.fill(buf, uint32(d), seq)
				s0 := time.Now()
				if err := snd.Send(buf); err != nil {
					r.abort(fmt.Errorf("send: %w", err))
					return
				}
				if traced {
					s1 := time.Now()
					r.rec.sendTook(s1.Sub(s0))
					r.tr.driverSpan(evSourceSend, d, seq, s0, s1)
				}
				wait.Reset(attemptTimeout)
				for timedOut := false; !ok && !timedOut; {
					select {
					case m := <-inbox:
						now := time.Now()
						got, valid := r.pay.check(m.Data, uint32(d))
						switch {
						case !valid || got > seq:
							r.rec.corrupt.Add(1)
						case got < seq:
							r.rec.stale.Add(1) // of a flow this dialer gave up on
						default:
							ok = true
							r.rec.deliver(now.Sub(t0), len(m.Data))
							if traced {
								r.tr.driverSpan(evDelivered, d, seq, t0, now)
							}
						}
					case <-wait.C:
						timedOut = true
					}
				}
			}
			r.mu.Lock()
			delete(r.routes, destFlow)
			r.mu.Unlock()
		}
		if !ok {
			r.rec.fail(w)
		}
	}
}
