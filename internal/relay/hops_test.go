package relay

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"infoslicing/internal/wire"
)

// Model-based test of the per-flow hop table: scripts of observe / data /
// stage-round / sweep / establish / splice steps drive one flowState next to
// a reference made of NodeID-keyed maps, which states the rules plainly.
// Before establishment the flow records the senders it hears, up to the cap;
// from establishment on, exactly the parents its block names. After every
// step the two must agree on every hop's stamps and counters, on which
// senders the flow agreed to remember, on the dead-parent count, on the
// upstream target set, and on exactly which hops a sweep reported.

const hmTimeout = 40 // liveness timeout, in the script's clock units

// refHops is the reference: a hop is recorded iff lastHeard holds it.
type refHops struct {
	established bool
	parents     map[wire.NodeID]bool
	lastHeard   map[wire.NodeID]int64
	missStreak  map[wire.NodeID]int
	downSince   map[wire.NodeID]int64
}

func newRefHops() *refHops {
	return &refHops{
		parents: map[wire.NodeID]bool{}, lastHeard: map[wire.NodeID]int64{},
		missStreak: map[wire.NodeID]int{}, downSince: map[wire.NodeID]int64{},
	}
}

func hmParentSet(pi *wire.PerNodeInfo) map[wire.NodeID]bool {
	s := map[wire.NodeID]bool{}
	for _, e := range pi.DataMap {
		s[e.Parent] = true
	}
	for _, e := range pi.SliceMap {
		s[e.Src.Parent] = true
	}
	return s
}

func (m *refHops) observe(from wire.NodeID, now int64) (recorded bool) {
	_, known := m.lastHeard[from]
	if !known && !m.established && len(m.lastHeard) < maxObservedHops {
		known = true
	}
	if known {
		m.lastHeard[from] = now
	}
	return known
}

// declare makes the block's parents the recorded hops: a parent not yet
// recorded starts its clock at now, one recorded keeps its state, and every
// other hop is forgotten with all of its state.
func (m *refHops) declare(pi *wire.PerNodeInfo, now int64) {
	m.parents, m.established = hmParentSet(pi), true
	for p := range m.parents {
		if _, ok := m.lastHeard[p]; !ok {
			m.lastHeard[p] = now
		}
	}
	for p := range m.lastHeard {
		if !m.parents[p] {
			delete(m.lastHeard, p)
			delete(m.downSince, p)
			delete(m.missStreak, p)
		}
	}
}

func (m *refHops) stage(from []wire.NodeID) {
	for p := range m.parents {
		if !slices.Contains(from, p) {
			m.missStreak[p]++
		} else if m.missStreak[p] < deadParentStreak {
			delete(m.missStreak, p)
		}
	}
}

func (m *refHops) dead() (n int) {
	for _, k := range m.missStreak {
		if k >= deadParentStreak {
			n++
		}
	}
	return n
}

func (m *refHops) sweep(now int64) (reported []wire.NodeID) {
	for p := range m.parents {
		if now-m.lastHeard[p] <= hmTimeout {
			delete(m.downSince, p)
			continue
		}
		if since, rep := m.downSince[p]; rep && now-since < hmTimeout {
			continue
		}
		m.downSince[p] = now
		reported = append(reported, p)
	}
	slices.Sort(reported)
	return reported
}

// hopHarness couples a flowState's hop table with the reference.
type hopHarness struct {
	tb   testing.TB
	fs   flowState
	ref  *refHops
	now  int64
	step int
}

func (h *hopHarness) check(op string) {
	h.tb.Helper()
	h.step++
	fail := func(format string, args ...any) {
		h.tb.Helper()
		h.tb.Fatalf("step %d %s at t=%d: %s", h.step, op, h.now, fmt.Sprintf(format, args...))
	}
	m := h.ref
	got := map[wire.NodeID]hop{}
	for _, hp := range h.fs.hops() {
		if _, dup := got[hp.id]; dup {
			fail("two records for hop %d", hp.id)
		}
		if hp.flags&^hopReported != 0 {
			fail("hop %d has flags %03b", hp.id, hp.flags)
		}
		got[hp.id] = hp
	}
	// Acks and reports go to the table's hops: once established, the parents.
	if len(got) != len(m.lastHeard) || m.established && len(got) != len(m.parents) {
		fail("table holds %d hops, reference records %d and declares %d parents", len(got), len(m.lastHeard), len(m.parents))
	}
	for id, last := range m.lastHeard {
		hp, ok := got[id]
		if !ok {
			fail("no record for hop %d", id)
		}
		if last != hp.heardAt {
			fail("hop %d heard at %d, reference %d", id, hp.heardAt, last)
		}
		if since, ok := m.downSince[id]; ok != (hp.flags&hopReported != 0) || ok && since != hp.downAt {
			fail("hop %d reported=%v at %d, reference %v at %d", id, hp.flags&hopReported != 0, hp.downAt, ok, since)
		}
		if int(hp.miss) != m.missStreak[id] {
			fail("hop %d miss %d, reference %d", id, hp.miss, m.missStreak[id])
		}
	}
	if h.fs.deadParents() != m.dead() {
		fail("%d dead; reference %d", h.fs.deadParents(), m.dead())
	}
}

func (h *hopHarness) observe(from wire.NodeID, data bool) {
	hi := h.fs.observe(from, h.now)
	if rec := h.ref.observe(from, h.now); rec != (hi >= 0) {
		h.tb.Fatalf("step %d: sender %d recorded=%v, reference %v", h.step, from, hi >= 0, rec)
	}
	if data {
		// handleData: a parent that speaks is alive, however late its slice.
		if hi >= 0 {
			h.fs.hops()[hi].miss = 0
		}
		delete(h.ref.missStreak, from)
	}
	h.check(fmt.Sprintf("observe(%d, data=%v)", from, data))
}

// hmInfo builds a routing block naming hop i+1 a parent for every bit i of
// mask, alternately through the data-map and the slice-map.
func hmInfo(mask uint8) *wire.PerNodeInfo {
	pi := &wire.PerNodeInfo{}
	for i := 0; i < 8; i++ {
		switch id := wire.NodeID(i + 1); {
		case mask&(1<<i) == 0:
		case i%2 == 0:
			pi.DataMap = append(pi.DataMap, wire.DataForward{Parent: id}, wire.DataForward{Parent: id, Child: 1})
		default:
			pi.SliceMap = append(pi.SliceMap, wire.SliceForward{Src: wire.SlotRef{Parent: id}})
		}
	}
	return pi
}

func (h *hopHarness) declare(mask uint8) {
	pi := hmInfo(mask)
	h.fs.setRoute(pi) // established: observe records no stranger from now on
	h.fs.declareParents(pi, h.now)
	h.ref.declare(pi, h.now)
	h.check(fmt.Sprintf("declare(%08b)", mask))
}

// stage notes a forwarded round, which only an established flow has.
func (h *hopHarness) stage(mask uint8) {
	if !h.ref.established {
		return
	}
	var from []wire.NodeID
	for i := 0; i < 8; i++ {
		if mask&(1<<i) != 0 {
			from = append(from, wire.NodeID(i+1))
		}
	}
	h.fs.noteRound(from)
	h.ref.stage(from)
	h.check(fmt.Sprintf("stage(%v)", from))
}

// sweep runs the liveness sweep as controlSweep does: on an established flow.
func (h *hopHarness) sweep() {
	if !h.ref.established {
		return
	}
	var got []wire.NodeID
	h.fs.sweepHops(h.now, hmTimeout, func(dead wire.NodeID) { got = append(got, dead) })
	slices.Sort(got)
	if want := h.ref.sweep(h.now); !slices.Equal(got, want) {
		h.tb.Fatalf("step %d sweep at t=%d reported %v, reference %v", h.step, h.now, got, want)
	}
	h.check("sweep")
}

// runHopScript interprets script two bytes at a time. Hops 1..8 are the
// ones routing blocks can name; a spoofing burst walks a range of further
// ids to fill the observation cap.
func runHopScript(tb testing.TB, script []byte) {
	h := &hopHarness{tb: tb, ref: newRefHops()}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		switch op % 8 {
		case 0:
			h.observe(wire.NodeID(arg%8+1), false)
		case 1:
			h.observe(wire.NodeID(arg%8+1), true)
		case 2:
			h.stage(arg)
		case 3:
			h.now += int64(arg)
		case 4:
			h.sweep()
		case 5:
			h.declare(arg)
		case 6:
			h.observe(wire.NodeID(100+int(arg)), op&8 != 0)
		case 7:
			for k := 0; k < 1+int(arg)%80; k++ {
				h.observe(wire.NodeID(1000+int(op>>3)*16+k), false)
			}
		}
	}
	h.sweep()
}

func TestHopTableAgainstModel(t *testing.T) {
	t.Run("scenarios", func(t *testing.T) {
		h := &hopHarness{tb: t, ref: newRefHops()}
		// Set-up: two hops and a stranger speak; the block names the two and
		// a third parent.
		h.observe(1, false)
		h.observe(2, false)
		h.observe(9, false)
		h.now = 5
		h.declare(0b0111)
		if h.fs.hops()[h.fs.hopIndex(3)].heardAt != 5 || h.fs.hops()[h.fs.hopIndex(1)].heardAt != 0 {
			t.Fatal("establishment reset a heard parent's clock, or did not start a silent one's")
		}
		if h.fs.hopIndex(9) >= 0 {
			t.Fatal("establishment kept a sender the block does not name")
		}
		// Parent 3 misses rounds until presumed dead; a late slice revives it.
		h.stage(0b011)
		h.stage(0b011)
		if h.fs.deadParents() != 1 {
			t.Fatal("silent parent not presumed dead")
		}
		h.stage(0b111) // a slice that arrived before the mark does not revive
		h.observe(3, true)
		if h.fs.deadParents() != 0 {
			t.Fatal("late slice did not clear the dead mark")
		}
		// Liveness: parents 1 and 2 go quiet and are reported once per timeout.
		h.now = 50
		h.observe(3, false)
		h.sweep()
		h.now = 60
		h.sweep()
		h.now = 95
		h.sweep()
		// A splice swaps parent 2 for 4: fresh grace, and 2's record goes.
		h.declare(0b1101)
		if h.fs.hopIndex(2) >= 0 {
			t.Fatal("replaced parent kept its record")
		}
		h.observe(4, true) // declared by the splice, never seen until now
	})
	t.Run("stranger after establishment", func(t *testing.T) {
		// A stranger heard before the block stages under the cap; one heard
		// after gets no record, however often it speaks, and is never
		// reported.
		h := &hopHarness{tb: t, ref: newRefHops()}
		for k := 0; k < maxObservedHops+10; k++ {
			h.observe(wire.NodeID(1000+k), false)
		}
		if len(h.fs.hops()) != maxObservedHops {
			t.Fatalf("%d senders recorded before establishment, cap %d", len(h.fs.hops()), maxObservedHops)
		}
		h.declare(0b0011)
		for r := 0; r < 3; r++ {
			h.now += hmTimeout + 1
			h.observe(5000, r%2 == 0)
			h.observe(1, false)
			h.sweep()
		}
		if h.fs.hopIndex(5000) >= 0 || len(h.fs.hops()) != 2 {
			t.Fatalf("hop table after a stranger spoke: %+v", h.fs.hops())
		}
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([]byte, 2*(50+rng.Intn(400)))
			rng.Read(script)
			runHopScript(t, script)
		}
	})
}

func FuzzHopTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 7, 2, 3, 2, 3, 1, 2, 3, 50, 4, 0, 3, 45, 4, 0, 5, 13})
	// A stranger heard before the block is dropped at establishment; one that
	// speaks after it, data or heartbeat, gets no record and is never reported.
	f.Add([]byte{0, 1, 0, 2, 5, 3, 3, 10, 14, 5, 6, 6, 3, 50, 4, 0, 7, 20, 0, 0, 14, 5, 3, 41, 4, 0})
	f.Add([]byte{7, 79, 15, 79, 5, 255, 6, 1, 14, 2, 5, 0, 3, 60, 4, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runHopScript(t, script)
	})
}
