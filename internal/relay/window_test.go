package relay

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Model-based test of the sliding round window: a forwarding flow (three
// parents, three children, d=2, recode rights) is driven with arrival
// scripts — reordering, duplicates, gaps, a first arrival far up the
// sequence space, ring growth under a pending deadline, cap overflow — on a
// virtual clock, next to a reference that keeps one plain map entry per
// round and states the intended behavior with no ring, no slot reuse, and
// no shared timer. After every step the two must agree on the window base,
// the dead-parent bookkeeping, the drop counters, and exactly which
// (round, child) pairs were forwarded at which virtual instant.

const (
	wmRoundWait = 40 * time.Millisecond
	wmHoleGrace = wmRoundWait // GapWait (default 2×RoundWait) − RoundWait
	wmFlow      = wire.FlowID(0x51de)
	wmD         = 2
)

var (
	wmParents  = []wire.NodeID{11, 12, 13}
	wmChildren = []wire.NodeID{21, 22, 23}
)

type fwdKey struct {
	child wire.NodeID
	seq   uint32
}

// wmTransport records each forwarded packet's (child, seq) and the virtual
// instant it left; a second copy of the same pair is an immediate failure.
type wmTransport struct {
	overlay.TransportBase
	clk  *simnet.VirtualClock
	sent map[fwdKey]time.Duration
	dup  *fwdKey
}

func (t *wmTransport) Attach(wire.NodeID, overlay.Handler) error { return nil }
func (t *wmTransport) Detach(wire.NodeID)                        {}
func (t *wmTransport) Send(from, to wire.NodeID, data []byte) error {
	k := fwdKey{to, binary.BigEndian.Uint32(data[9:])}
	if _, ok := t.sent[k]; ok && t.dup == nil {
		t.dup = &k
	}
	t.sent[k] = t.clk.Elapsed()
	return nil
}

type refRound struct {
	got       map[wire.NodeID]bool
	deadline  time.Duration
	forwarded bool
}

// refWindow is the reference: the same rules over a map keyed by round.
type refWindow struct {
	rounds        map[uint32]*refRound
	low, high     uint32
	miss          map[wire.NodeID]int // consecutive rounds missed; dead at deadParentStreak
	late, expired int64
	sent          map[fwdKey]time.Duration
}

func newRefWindow() *refWindow {
	return &refWindow{
		rounds: map[uint32]*refRound{}, miss: map[wire.NodeID]int{},
		sent: map[fwdKey]time.Duration{},
	}
}

func (m *refWindow) stage(seq uint32, r *refRound, at time.Duration) {
	r.forwarded = true
	for _, p := range wmParents {
		if !r.got[p] {
			m.miss[p]++
		} else if m.miss[p] < deadParentStreak {
			delete(m.miss, p) // a dead parent stays dead until it speaks again
		}
	}
	for i, p := range wmParents {
		// A missing parent's slice is regenerated iff the survivors span
		// the round (any d of the d' slices do).
		if r.got[p] || len(r.got) >= wmD {
			m.sent[fwdKey{wmChildren[i], seq}] = at
		}
	}
}

func (m *refWindow) dead() (n int) {
	for _, k := range m.miss {
		if k >= deadParentStreak {
			n++
		}
	}
	return n
}

func (m *refWindow) advance() {
	for m.low != m.high {
		if r := m.rounds[m.low]; r == nil || !r.forwarded {
			return
		}
		delete(m.rounds, m.low)
		m.low++
	}
}

// arrive is one slice from parent p for round seq at virtual time now; ring
// is the implementation's current ring size, which only matters to the
// overflow rule (the base lands one ring below the new round).
func (m *refWindow) arrive(p wire.NodeID, seq uint32, now time.Duration, ring int) {
	delete(m.miss, p)
	if int32(seq-m.low) < 0 {
		m.late++
		return
	}
	if seq-m.low >= maxWindow {
		low := seq - uint32(ring) + 1
		for ; m.low != m.high && m.low != low; m.low++ {
			if r := m.rounds[m.low]; r != nil && !r.forwarded && len(r.got) > 0 {
				m.expired++
			}
			delete(m.rounds, m.low)
		}
		m.low = low
		if int32(m.high-low) < 0 {
			m.high = low
		}
	}
	if int32(seq-m.high) >= 0 {
		m.high = seq + 1
	}
	r := m.rounds[seq]
	if r == nil {
		r = &refRound{got: map[wire.NodeID]bool{}}
		m.rounds[seq] = r
	}
	if r.forwarded {
		m.late++
		return
	}
	if r.got[p] {
		return
	}
	if len(r.got) == 0 {
		r.deadline = now + wmRoundWait
	}
	r.got[p] = true
	if len(r.got) >= len(wmParents)-m.dead() {
		m.stage(seq, r, now)
	}
	m.advance()
}

// runTo processes, in time order, every instant in (from, to] at which
// something can happen: a round's deadline (still short, it forwards with
// what it has) and that deadline plus the hole grace (a round of which
// nothing has arrived GapWait after a later round was first seen is written
// off).
func (m *refWindow) runTo(from, to time.Duration) {
	for {
		var next time.Duration
		for seq := m.low; seq != m.high; seq++ {
			r := m.rounds[seq]
			if r == nil || r.deadline == 0 {
				continue
			}
			for _, at := range []time.Duration{r.deadline, r.deadline + wmHoleGrace} {
				if at > from && at <= to && (next == 0 || at < next) {
					next = at
				}
			}
		}
		if next == 0 {
			return
		}
		lastDue := m.low // holes in [low, lastDue) are written off
		for seq := m.low; seq != m.high; seq++ {
			if r := m.rounds[seq]; r != nil && r.deadline != 0 && r.deadline+wmHoleGrace <= next {
				lastDue = seq
			}
		}
		for seq := m.low; seq != m.high; seq++ {
			r := m.rounds[seq]
			switch {
			case r == nil || r.deadline == 0:
				if int32(lastDue-seq) > 0 {
					if r == nil {
						r = &refRound{got: map[wire.NodeID]bool{}}
						m.rounds[seq] = r
					}
					r.forwarded = true
				}
			case r.deadline <= next && !r.forwarded:
				m.stage(seq, r, next)
			}
		}
		m.advance()
		from = next
	}
}

// windowHarness couples one relay flow with its reference.
type windowHarness struct {
	tb     testing.TB
	clk    *simnet.VirtualClock
	n      *Node
	sh     *shard
	fs     *flowState
	tr     *wmTransport
	ref    *refWindow
	frames [][]byte // one framed slice per parent; seq patched per send
	step   int
}

func newWindowHarness(tb testing.TB) *windowHarness {
	tb.Helper()
	clk := simnet.NewVirtualClock()
	tr := &wmTransport{clk: clk, sent: map[fwdKey]time.Duration{}}
	n, err := New(1, tr, Config{
		Shards: 1, RoundWait: wmRoundWait, Clock: clk,
		FlowTTL: time.Hour, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	pi := &wire.PerNodeInfo{
		Children:   wmChildren,
		ChildFlows: []wire.FlowID{0xc1, 0xc2, 0xc3},
		Key:        testKey(0x33),
		Recode:     true,
	}
	for i, p := range wmParents {
		pi.DataMap = append(pi.DataMap, wire.DataForward{Parent: p, Child: uint8(i)})
	}
	h := &windowHarness{tb: tb, clk: clk, n: n, tr: tr, ref: newRefWindow()}
	h.fs = injectFlowAt(n, wmFlow, pi, clk.Now())
	h.sh = n.shardFor(wmFlow)

	rng := rand.New(rand.NewSource(2))
	enc, err := code.NewEncoder(wmD, len(wmParents), rng)
	if err != nil {
		tb.Fatal(err)
	}
	chunk := make([]byte, 64)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range slices {
		for j := i + 1; j < len(slices); j++ {
			if !code.Decodable(wmD, []code.Slice{slices[i], slices[j]}) {
				tb.Fatal("seed produced a dependent slice pair; pick another seed")
			}
		}
		h.frames = append(h.frames, dataFrame(wmFlow, 0, wmD, slices[i]))
	}
	return h
}

// ringOf returns the flow's round ring, nil while it has none.
func ringOf(fs *flowState) []roundSlot {
	if fs.tail == nil {
		return nil
	}
	return fs.tail.ring
}

func (h *windowHarness) arrive(parent int, seq uint32) {
	ring, lowBefore := minWindow, uint32(0)
	if r := ringOf(h.fs); r != nil {
		ring, lowBefore = len(r), h.fs.win.low
	}
	sentBefore := len(h.tr.sent)
	pkt := append([]byte(nil), h.frames[parent]...)
	binary.BigEndian.PutUint32(pkt[9:], seq)
	h.n.process(h.sh, wmParents[parent], pkt)
	h.ref.arrive(wmParents[parent], seq, h.clk.Elapsed(), ring)
	if len(h.tr.sent) > sentBefore && int32(seq-lowBefore) < 0 {
		h.tb.Fatalf("step %d: slice for round %d, below the window base %d, caused a forward", h.step, seq, lowBefore)
	}
	h.check(fmt.Sprintf("arrive(parent %d, seq %d)", parent, seq))
}

func (h *windowHarness) advance(d time.Duration) {
	from := h.clk.Elapsed()
	h.clk.RunFor(d)
	h.ref.runTo(from, h.clk.Elapsed())
	h.check(fmt.Sprintf("advance(%v)", d))
}

// drain runs out every pending deadline and makes the final full check.
func (h *windowHarness) drain() {
	from := h.clk.Elapsed()
	h.clk.RunFor(3 * wmRoundWait)
	h.ref.runTo(from, h.clk.Elapsed())
	h.check("drain")
	if w := &h.fs.win; w.low != w.high {
		h.tb.Fatalf("window [%d,%d) not drained %v after the last arrival", w.low, w.high, 3*wmRoundWait)
	}
}

func (h *windowHarness) check(op string) {
	h.tb.Helper()
	h.step++
	fail := func(format string, args ...any) {
		h.tb.Helper()
		h.tb.Fatalf("step %d %s at %v: %s", h.step, op, h.clk.Elapsed(), fmt.Sprintf(format, args...))
	}
	if h.tr.dup != nil {
		fail("round %d forwarded to child %d twice", h.tr.dup.seq, h.tr.dup.child)
	}
	// Nothing runs on the shard between the harness's own calls: the worker
	// is idle, and the virtual clock ticks only inside advance.
	w, m, ring := &h.fs.win, h.ref, ringOf(h.fs)
	if w.low != m.low || w.high != m.high {
		fail("window [%d,%d), reference [%d,%d)", w.low, w.high, m.low, m.high)
	}
	if n := len(ring); n&(n-1) != 0 || n > maxWindow || int(w.high-w.low) > n {
		fail("ring of %d slots tracking [%d,%d)", n, w.low, w.high)
	}
	if w.low != w.high && (h.fs.due[dlRound] == 0 || h.sh.tickAt == 0) {
		fail("rounds waiting and no round wait pending (%d) or no clock timer armed (%d)", h.fs.due[dlRound], h.sh.tickAt)
	}
	if c := h.sh.ctr; c[cLateSlices] != m.late || c[cRoundsExpired] != m.expired {
		fail("late %d expired %d, reference late %d expired %d", c[cLateSlices], c[cRoundsExpired], m.late, m.expired)
	}
	if err := h.n.Books(); err != nil {
		fail("%v", err)
	}
	miss := map[wire.NodeID]int{}
	for _, hp := range h.fs.hops() {
		if hp.miss > 0 {
			miss[hp.id] = int(hp.miss)
		}
	}
	if !maps.Equal(miss, m.miss) {
		fail("miss streaks %v, reference %v", miss, m.miss)
	}
	// The full forward-set comparison is linear in the history: run it
	// every step while the history is short, then every 64th (and last).
	if len(h.tr.sent) != len(m.sent) || (len(m.sent) < 512 || h.step%64 == 0 || op == "drain") && !maps.Equal(h.tr.sent, m.sent) {
		for k, at := range m.sent {
			if got, ok := h.tr.sent[k]; !ok || got != at {
				fail("round %d → child %d: forwarded at %v (sent=%v), reference at %v", k.seq, k.child, got, ok, at)
			}
		}
		for k, at := range h.tr.sent {
			if _, ok := m.sent[k]; !ok {
				fail("round %d → child %d forwarded at %v; the reference never forwards it", k.seq, k.child, at)
			}
		}
	}
	// A slot outside [low, high) is recycled: it holds no views.
	tracked := make([]bool, len(ring))
	for seq := w.low; seq != w.high; seq++ {
		tracked[seq&uint32(len(ring)-1)] = true
	}
	for i := range ring {
		if s := &ring[i]; !tracked[i] && (len(s.got) > 0 || s.chunk != nil || s.forwarded) {
			fail("recycled slot %d is not clean: %d views, forwarded %v", i, len(s.got), s.forwarded)
		}
	}
}

// runWindowScript interprets script two bytes at a time against a cursor
// that walks up the sequence space: arrivals land within a few rounds of
// the cursor, from any parent; the rest move the cursor or the clock.
func runWindowScript(tb testing.TB, script []byte) {
	h := newWindowHarness(tb)
	var cursor uint32
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		switch op % 8 {
		case 5:
			h.advance(time.Duration(arg) * time.Millisecond)
		case 6:
			cursor += uint32(arg % 8)
		case 7:
			cursor += uint32(arg) * 64 // far jump: growth, then cap overflow
		default:
			if seq := int64(cursor) + int64(arg%16) - 4; seq >= 0 {
				h.arrive(int(op>>3)%len(wmParents), uint32(seq))
			}
		}
	}
	h.drain()
}

func TestRoundWindowAgainstModel(t *testing.T) {
	t.Run("scenarios", func(t *testing.T) {
		h := newWindowHarness(t)
		// First arrival is well up the sequence: the base must not jump to
		// it, or the rounds below — still in flight — would be lost.
		h.arrive(0, 9)
		for seq := uint32(0); seq < 9; seq++ {
			for p := range wmParents {
				h.arrive(p, seq)
			}
		}
		h.arrive(1, 9)
		h.arrive(2, 9)
		// Parent 2 goes quiet: two short rounds mark it dead, then rounds
		// forward the moment the other two are in.
		for seq := uint32(10); seq < 14; seq++ {
			h.arrive(0, seq)
			h.arrive(1, seq)
			h.advance(wmRoundWait)
		}
		if h.fs.deadParents() != 1 || h.fs.hops()[h.fs.hopIndex(wmParents[2])].miss < deadParentStreak {
			t.Fatal("silent parent not marked dead")
		}
		// Its late slice for a round long forwarded still proves it alive.
		h.arrive(2, 12)
		if h.fs.deadParents() != 0 || h.fs.hops()[h.fs.hopIndex(wmParents[2])].miss != 0 {
			t.Fatal("late slice did not clear the dead mark")
		}
		// Ring growth while a deadline is pending: one parent runs ahead by
		// more rounds than the ring holds, then time runs out for all.
		for seq := uint32(14); seq < 14+50; seq++ {
			h.arrive(0, seq)
			h.advance(time.Millisecond / 2)
		}
		if n := len(ringOf(h.fs)); n < 64 {
			t.Fatalf("ring did not grow under 50 pending rounds: %d slots", n)
		}
		h.advance(2 * wmRoundWait)
		// Cap overflow: more unfinished rounds than the ring may ever hold.
		for seq := uint32(100); seq < 100+maxWindow+200; seq++ {
			h.arrive(1, seq)
		}
		if h.ref.expired != 200 {
			t.Fatalf("reference expired %d rounds, want 200", h.ref.expired)
		}
		// A jump wider than the cap slides the window without growing it.
		h.advance(2 * wmRoundWait)
		h.arrive(0, 1_000_000)
		h.arrive(2, 1_000_000-2)
		h.drain()
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]byte, 2*(200+rng.Intn(600)))
			for i := 0; i < len(script); i += 2 {
				// Mostly arrivals; now and then the cursor or clock moves,
				// rarely the cursor leaps.
				switch r := rng.Intn(100); {
				case r < 70:
					script[i] = byte(rng.Intn(5) + 8*rng.Intn(3))
				case r < 82:
					script[i] = 5
				case r < 98:
					script[i] = 6
				default:
					script[i] = 7
				}
				script[i+1] = byte(rng.Intn(256))
			}
			runWindowScript(t, script)
		}
	})
}

func FuzzRoundWindow(f *testing.F) {
	f.Add([]byte{0, 13, 8, 4, 16, 4, 5, 50})                  // first arrival high, then the round it skipped
	f.Add([]byte{7, 80, 0, 4, 5, 30, 8, 3, 5, 60})            // far jump on an empty window
	f.Add([]byte{0, 4, 6, 1, 0, 4, 6, 1, 0, 4, 5, 45, 16, 2}) // pending rounds, deadline, late slice
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runWindowScript(t, script)
	})
}
