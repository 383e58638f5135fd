package relay

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Model-based test of the shard's deadline queue: a handful of flows arm,
// re-arm and cancel their three waits, are evicted with waits pending, and
// re-arm from inside a firing (as the round window does), on a virtual clock,
// next to a reference that keeps every pending wait in one plain list and
// sorts it. After every step the two must agree on exactly which
// (instant, flow, kind) fired, in which order, and on what is still pending;
// and the shard must hold exactly one clock timer, armed no later than its
// next instant — the queue's head, or its GC instant when nothing is pending.

const (
	dqStep  = 2 * time.Millisecond // every instant is a multiple: ties are common
	dqAgain = 4 * dqStep           // how far ahead a re-arming round wait re-arms
	dqFlows = 5
)

type dqFiring struct {
	at   time.Duration
	flow wire.FlowID
	kind int
}

// liveClock counts the AfterFunc timers that have neither fired nor been
// stopped.
type liveClock struct {
	*simnet.VirtualClock
	live int
}

type liveTimer struct {
	simnet.Timer
	c *liveClock
}

func (c *liveClock) AfterFunc(d time.Duration, f func()) simnet.Timer {
	c.live++
	return &liveTimer{c.VirtualClock.AfterFunc(d, func() { c.live--; f() }), c}
}

func (t *liveTimer) Stop() bool {
	ok := t.Timer.Stop()
	if ok {
		t.c.live--
	}
	return ok
}

type dqTransport struct{ overlay.TransportBase }

func (dqTransport) Attach(wire.NodeID, overlay.Handler) error { return nil }
func (dqTransport) Detach(wire.NodeID)                        {}
func (dqTransport) Send(_, _ wire.NodeID, _ []byte) error     { return nil }

// dqRef is the reference: pending waits per flow, the arm-order stamp a flow
// takes whenever its earliest wait moves, and how many more times a flow's
// round wait re-arms when it fires.
type dqRef struct {
	due   map[wire.FlowID]*[nDeadlines]time.Duration
	seq   map[wire.FlowID]uint64
	arms  uint64
	again map[wire.FlowID]int
}

func (r *dqRef) earliest(f wire.FlowID) (at time.Duration) {
	if d := r.due[f]; d != nil {
		for _, v := range d {
			if v != 0 && (at == 0 || v < at) {
				at = v
			}
		}
	}
	return at
}

func (r *dqRef) set(f wire.FlowID, kind int, at time.Duration) {
	if r.due[f] == nil {
		r.due[f] = new([nDeadlines]time.Duration)
	}
	was := r.earliest(f)
	r.due[f][kind] = at
	if now := r.earliest(f); now != was && now != 0 {
		r.arms++
		r.seq[f] = r.arms
	}
}

func (r *dqRef) pending() (list []dqFiring) {
	for f, d := range r.due {
		for k, at := range d {
			if at != 0 {
				list = append(list, dqFiring{at, f, k})
			}
		}
	}
	slices.SortFunc(list, func(a, b dqFiring) int {
		switch {
		case a.at != b.at:
			return int(a.at - b.at)
		case a.flow != b.flow:
			return int(r.seq[a.flow]) - int(r.seq[b.flow])
		}
		return a.kind - b.kind
	})
	return list
}

// runTo fires, in order, everything pending up to and including instant to.
func (r *dqRef) runTo(to time.Duration) (fired []dqFiring) {
	for {
		list := r.pending()
		if len(list) == 0 || list[0].at > to {
			return fired
		}
		e := list[0]
		fired = append(fired, e)
		r.set(e.flow, e.kind, 0)
		if e.kind == dlRound && r.again[e.flow] > 0 {
			r.again[e.flow]--
			r.set(e.flow, dlRound, e.at+dqAgain)
		}
	}
}

type dqHarness struct {
	tb    testing.TB
	clk   *liveClock
	n     *Node
	sh    *shard
	flows map[wire.FlowID]*flowState
	gone  []*flowState
	again map[wire.FlowID]int
	fired []dqFiring
	want  []dqFiring
	ref   dqRef
	step  int
}

func newDQHarness(tb testing.TB) *dqHarness {
	tb.Helper()
	clk := &liveClock{VirtualClock: simnet.NewVirtualClock()}
	n, err := New(1, dqTransport{}, Config{
		Shards: 1, Clock: clk, FlowTTL: time.Hour, GCInterval: 1000 * time.Hour, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	h := &dqHarness{
		tb: tb, clk: clk, n: n, sh: n.shards[0],
		flows: map[wire.FlowID]*flowState{}, again: map[wire.FlowID]int{},
		ref: dqRef{
			due: map[wire.FlowID]*[nDeadlines]time.Duration{}, seq: map[wire.FlowID]uint64{},
			again: map[wire.FlowID]int{},
		},
	}
	// The timer's wake takes what is due off the queue as tick does, but
	// records it instead of running it: the waits' own bodies have their
	// tests (window, gap, set-up instants). Otherwise it is the driver's
	// wake: the spent timer is forgotten and the next one armed.
	h.sh.onTimer = func() {
		h.sh.do(func() {
			now := n.stamp(clk.Now())
			if now >= h.sh.tickAt {
				h.sh.tickAt = 0
			}
			for len(h.sh.deadlines) > 0 && h.sh.deadlines[0].dueAt <= now {
				fs := h.sh.deadlines[0]
				kind, _ := fs.earliest()
				h.sh.setDeadline(fs, kind, 0)
				h.fired = append(h.fired, dqFiring{time.Duration(now), fs.flow, kind})
				if kind == dlRound && h.again[fs.flow] > 0 {
					h.again[fs.flow]--
					h.sh.setDeadline(fs, dlRound, now+int64(dqAgain))
				}
			}
			n.arm(h.sh)
		})
	}
	return h
}

// flow returns the resident flow with this id, admitting it first if need be.
func (h *dqHarness) flow(id wire.FlowID) *flowState {
	fs := h.flows[id]
	if fs == nil {
		fs = &flowState{flow: id, lastActive: h.n.stamp(h.clk.Now())}
		h.sh.do(func() {
			h.sh.flows[id] = fs
			h.sh.lruPush(fs)
		})
		h.n.flowCount.Add(1)
		h.flows[id] = fs
	}
	return fs
}

// arm sets the flow's wait of one kind to d from now (zero cancels it);
// again makes a round wait re-arm once more when it fires.
func (h *dqHarness) arm(id wire.FlowID, kind int, d time.Duration, again bool) {
	fs, at := h.flow(id), time.Duration(0)
	if d != 0 {
		at = h.clk.Elapsed() + d
	}
	h.sh.do(func() {
		h.sh.setDeadline(fs, kind, int64(at))
		h.n.arm(h.sh)
	})
	h.ref.set(id, kind, at)
	if again && kind == dlRound && d != 0 {
		h.again[id]++
		h.ref.again[id]++
	}
	h.check(fmt.Sprintf("arm(flow %d, kind %d, +%v)", id, kind, d))
}

func (h *dqHarness) evict(id wire.FlowID) {
	fs := h.flows[id]
	if fs == nil {
		return
	}
	h.sh.do(func() {
		h.n.removeFlow(h.sh, fs, true)
		h.n.arm(h.sh)
	})
	delete(h.flows, id)
	h.gone = append(h.gone, fs)
	delete(h.ref.due, id)
	delete(h.ref.again, id)
	delete(h.again, id)
	h.check(fmt.Sprintf("evict(flow %d)", id))
}

func (h *dqHarness) advance(d time.Duration) {
	h.clk.RunFor(d)
	h.want = append(h.want, h.ref.runTo(h.clk.Elapsed())...)
	h.check(fmt.Sprintf("advance(%v)", d))
}

func (h *dqHarness) check(op string) {
	h.tb.Helper()
	h.step++
	fail := func(format string, args ...any) {
		h.tb.Helper()
		h.tb.Fatalf("step %d %s at %v: %s", h.step, op, h.clk.Elapsed(), fmt.Sprintf(format, args...))
	}
	if !slices.Equal(h.fired, h.want) {
		i := 0
		for i < len(h.fired) && i < len(h.want) && h.fired[i] == h.want[i] {
			i++
		}
		fail("from firing %d on: fired %v, reference %v", i, h.fired[i:], h.want[i:])
	}
	// Nothing runs on the shard between the harness's own calls.
	q, waiting := h.sh.deadlines, 0
	for id, fs := range h.flows {
		var due [nDeadlines]time.Duration
		if d := h.ref.due[id]; d != nil {
			due = *d
		}
		for k := range due {
			if time.Duration(fs.due[k]) != due[k] {
				fail("flow %d wait %d pending for %v, reference %v", id, k, time.Duration(fs.due[k]), due[k])
			}
		}
		if h.ref.earliest(id) != 0 {
			waiting++
		} else if fs.heapPos != 0 {
			fail("flow %d waits on nothing and sits in the queue at %d", id, fs.heapPos)
		}
	}
	if len(q) != waiting {
		fail("%d flows queued, %d waiting", len(q), waiting)
	}
	for i, fs := range q {
		if int(fs.heapPos) != i+1 {
			fail("flow %d at queue index %d believes it is at %d", fs.flow, i, fs.heapPos-1)
		}
		if i > 0 && q.Less(i, (i-1)/2) {
			fail("queue index %d sorts before its parent", i)
		}
	}
	for _, fs := range h.gone {
		if fs.heapPos != 0 || fs.due != [nDeadlines]int64{} {
			fail("evicted flow %d still queued (%d) or waiting (%v)", fs.flow, fs.heapPos, fs.due)
		}
	}
	// One clock timer, never later than the head or, with nothing pending,
	// the GC instant.
	next := h.sh.gcAt
	if len(q) > 0 {
		_, head := q[0].earliest()
		if head != q[0].dueAt {
			fail("head waits for %v, queued for %v", time.Duration(head), time.Duration(q[0].dueAt))
		}
		next = head
	}
	if h.sh.tickAt == 0 || h.sh.tickAt > next {
		fail("next instant %v, clock timer armed for %v", time.Duration(next), time.Duration(h.sh.tickAt))
	}
	if h.clk.live != 1 {
		fail("%d clock timers live, want 1", h.clk.live)
	}
}

// finish runs every pending wait out, then closes the node with a fresh set
// pending: none of those may fire, and no timer may be left behind.
func (h *dqHarness) finish() {
	h.advance(time.Second)
	if len(h.sh.deadlines) != 0 {
		h.tb.Fatalf("%d flows still queued a second after the last arm", len(h.sh.deadlines))
	}
	for id := wire.FlowID(1); id <= dqFlows; id++ {
		h.arm(id, int(id)%nDeadlines, time.Duration(id)*dqStep, true)
	}
	h.n.Close()
	h.clk.RunFor(time.Second)
	if len(h.fired) != len(h.want) {
		h.tb.Fatalf("a closed node's waits fired: %v", h.fired[len(h.want):])
	}
	if h.clk.live != 0 || h.sh.tickAt != 0 || len(h.sh.deadlines) != 0 {
		h.tb.Fatalf("closed with %d clock timers live, timer armed for %d, %d flows queued", h.clk.live, h.sh.tickAt, len(h.sh.deadlines))
	}
}

// runDeadlineScript interprets script three bytes at a time.
func runDeadlineScript(tb testing.TB, script []byte) {
	h := newDQHarness(tb)
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		id, kind := wire.FlowID(1+a%dqFlows), int(a/dqFlows)%nDeadlines
		switch op % 8 {
		case 4:
			h.arm(id, kind, 0, false)
		case 5:
			h.evict(id)
		case 6, 7:
			h.advance(time.Duration(b%24) * dqStep)
		default:
			h.arm(id, kind, time.Duration(1+b%16)*dqStep, b&0x80 != 0)
		}
	}
	h.finish()
}

func TestDeadlineQueueAgainstModel(t *testing.T) {
	t.Run("scenarios", func(t *testing.T) {
		h := newDQHarness(t)
		// Armed in the order 3, 1, 2 for one instant: those still waiting on it
		// when it comes fire in that order.
		for _, id := range []wire.FlowID{3, 1, 2} {
			h.arm(id, dlRound, 10*dqStep, false)
		}
		// An earlier wait preempts the clock timer; a later one leaves it.
		h.arm(4, dlGap, 3*dqStep, false)
		h.arm(5, dlSetup, 20*dqStep, false)
		if got := time.Duration(h.sh.tickAt); got != 3*dqStep {
			t.Fatalf("clock timer armed for %v, want the earliest wait (%v)", got, 3*dqStep)
		}
		// Cancelling the head moves nothing on the clock: that tick finds
		// nothing due and re-arms for the new head.
		h.arm(4, dlGap, 0, false)
		h.advance(3 * dqStep)
		if got := time.Duration(h.sh.tickAt); got != 10*dqStep {
			t.Fatalf("after an idle tick the clock timer is armed for %v, want %v", got, 10*dqStep)
		}
		// Re-arming moves a flow's wait; one flow's two waits at one instant
		// fire in kind order, together; an evicted flow's never fire.
		h.arm(1, dlRound, 12*dqStep, false)
		h.arm(2, dlSetup, 7*dqStep, false)
		h.evict(5)
		h.advance(7 * dqStep)
		if want := []dqFiring{{10 * dqStep, 3, dlRound}, {10 * dqStep, 2, dlSetup}, {10 * dqStep, 2, dlRound}}; !slices.Equal(h.fired, want) {
			t.Fatalf("fired %v, want %v", h.fired, want)
		}
		// A wait that re-arms from inside its own firing keeps its place.
		h.arm(2, dlRound, 5*dqStep, true)
		h.arm(2, dlRound, 5*dqStep, true)
		h.advance(30 * dqStep)
		if n := len(h.fired); n != 7 || h.fired[n-1] != (dqFiring{15*dqStep + 2*dqAgain, 2, dlRound}) {
			t.Fatalf("fired %v, want seven ending on flow 2's second re-arm", h.fired)
		}
		h.finish()
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]byte, 3*(100+rng.Intn(400)))
			rng.Read(script)
			runDeadlineScript(t, script)
		}
	})
}

func FuzzDeadlineQueue(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 2, 4, 0, 3, 4, 6, 0, 9})            // three flows, one instant
	f.Add([]byte{0, 6, 9, 0, 1, 2, 4, 1, 0, 6, 0, 3, 6, 0, 20})  // preempt, cancel the head, idle tick
	f.Add([]byte{0, 5, 0x83, 0, 10, 3, 5, 0, 0, 7, 0, 23, 5, 5}) // re-arming round wait, evictions
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3000 {
			script = script[:3000]
		}
		runDeadlineScript(t, script)
	})
}
