package relay

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"infoslicing/internal/wire"
)

// Model-based test of the per-flow hop table: scripts of observe / data /
// stage-round / sweep / establish / splice steps drive one flowState next to
// a reference made of the six NodeID-keyed maps the table replaced, which
// states the rules the way the relay used to apply them. After every step
// the two must agree on every hop's flags, stamps and counters, on which
// senders the flow agreed to remember, on the dead-parent count, on the
// upstream target set, and on exactly which hops a sweep reported.

const hmTimeout = 40 // liveness timeout, in the script's clock units

type refHops struct {
	parents    map[wire.NodeID]bool
	seen       map[wire.NodeID]bool
	lastHeard  map[wire.NodeID]int64
	missStreak map[wire.NodeID]int
	downSince  map[wire.NodeID]int64
	downCount  map[wire.NodeID]int
}

func newRefHops() *refHops {
	return &refHops{
		parents: map[wire.NodeID]bool{}, seen: map[wire.NodeID]bool{},
		lastHeard: map[wire.NodeID]int64{}, missStreak: map[wire.NodeID]int{},
		downSince: map[wire.NodeID]int64{}, downCount: map[wire.NodeID]int{},
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
	known := m.seen[from]
	if !known && (len(m.seen) < maxObservedHops || m.parents[from]) {
		m.seen[from] = true
		known = true
	}
	if known || m.parents[from] {
		m.lastHeard[from] = now
	}
	return known
}

func (m *refHops) establish(pi *wire.PerNodeInfo, now int64) {
	m.parents = hmParentSet(pi)
	for p := range m.parents {
		if _, ok := m.lastHeard[p]; !ok {
			m.lastHeard[p] = now
		}
	}
}

func (m *refHops) splice(pi *wire.PerNodeInfo, now int64) {
	next := hmParentSet(pi)
	for p := range next {
		if !m.parents[p] {
			m.lastHeard[p] = now
			delete(m.missStreak, p)
		}
	}
	for p := range m.parents {
		if !next[p] {
			delete(m.lastHeard, p)
			delete(m.downSince, p)
			delete(m.downCount, p)
			delete(m.missStreak, p)
		}
	}
	m.parents = next
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
	monitored, obsOnly := m.parents, false
	if len(monitored) == 0 {
		monitored, obsOnly = m.seen, true
	}
	for p := range monitored {
		last, ok := m.lastHeard[p]
		if !ok {
			m.lastHeard[p] = now
			continue
		}
		if now-last <= hmTimeout {
			delete(m.downSince, p)
			delete(m.downCount, p)
			continue
		}
		if since, rep := m.downSince[p]; rep && now-since < hmTimeout {
			continue
		}
		m.downSince[p] = now
		reported = append(reported, p)
		if obsOnly {
			if m.downCount[p]++; m.downCount[p] >= obsReportLimit {
				delete(m.seen, p)
				delete(m.lastHeard, p)
				delete(m.downSince, p)
				delete(m.downCount, p)
			}
		}
	}
	slices.Sort(reported)
	return reported
}

// hopHarness couples a flowState's hop table with the reference.
type hopHarness struct {
	tb          testing.TB
	fs          flowState
	ref         *refHops
	now         int64
	established bool
	step        int
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
		if hp.flags&^(hopParent|hopObserved|hopHeard|hopReported) != 0 || hp.flags&(hopParent|hopObserved) == 0 {
			fail("hop %d has flags %05b", hp.id, hp.flags)
		}
		got[hp.id] = hp
	}
	targets := maps.Clone(m.parents) // acks and reports go to parents ∪ observed
	maps.Copy(targets, m.seen)
	if len(got) != len(targets) {
		fail("table holds %d hops, upstream target set has %d", len(got), len(targets))
	}
	for id := range targets {
		hp, ok := got[id]
		if !ok {
			fail("no record for upstream target %d", id)
		}
		if hp.flags&hopParent != 0 != m.parents[id] || hp.flags&hopObserved != 0 != m.seen[id] {
			fail("hop %d flags %04b, reference parent=%v seen=%v", id, hp.flags, m.parents[id], m.seen[id])
		}
		if last, ok := m.lastHeard[id]; ok != (hp.flags&hopHeard != 0) || ok && last != hp.heardAt {
			fail("hop %d heard=%v at %d, reference %v at %d", id, hp.flags&hopHeard != 0, hp.heardAt, ok, last)
		}
		if since, ok := m.downSince[id]; ok != (hp.flags&hopReported != 0) || ok && since != hp.downAt {
			fail("hop %d reported=%v at %d, reference %v at %d", id, hp.flags&hopReported != 0, hp.downAt, ok, since)
		}
		if int(hp.miss) != m.missStreak[id] || int(hp.downCount) != m.downCount[id] {
			fail("hop %d miss %d down-count %d, reference %d and %d", id, hp.miss, hp.downCount, m.missStreak[id], m.downCount[id])
		}
	}
	if int(h.fs.route.nParents) != len(m.parents) || h.fs.deadParents() != m.dead() {
		fail("%d parents, %d dead; reference %d, %d", h.fs.route.nParents, h.fs.deadParents(), len(m.parents), m.dead())
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
	if h.established {
		h.fs.declareParents(pi, h.now, true)
		h.ref.splice(pi, h.now)
	} else {
		h.fs.declareParents(pi, h.now, false)
		h.ref.establish(pi, h.now)
		h.established = true
	}
	h.check(fmt.Sprintf("declare(%08b)", mask))
}

func (h *hopHarness) stage(mask uint8) {
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

func (h *hopHarness) sweep() {
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
		// Set-up: two hops speak, the block names them and a third parents.
		h.observe(1, false)
		h.observe(2, false)
		h.now = 5
		h.declare(0b0111)
		if h.fs.hops()[h.fs.hopIndex(3)].heardAt != 5 || h.fs.hops()[h.fs.hopIndex(1)].heardAt != 0 {
			t.Fatal("establishment reset a heard parent's clock, or did not start a silent one's")
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
		// A splice swaps parent 2 for 4: fresh grace, stale state gone, and 2,
		// seen sending, stays an upstream target.
		h.declare(0b1101)
		if i := h.fs.hopIndex(2); i < 0 || h.fs.hops()[i].flags != hopObserved {
			t.Fatal("replaced parent should remain as an observed hop with no liveness state")
		}
		// The observation cap binds strangers, never a declared parent.
		for k := 0; k < maxObservedHops+10; k++ {
			h.observe(wire.NodeID(1000+k), false)
		}
		if h.fs.observe(5000, h.now) >= 0 {
			t.Fatal("sender past the cap was recorded")
		}
		h.ref.observe(5000, h.now)
		h.observe(4, true) // declared by the splice, never seen until now
	})
	t.Run("leaf forgets", func(t *testing.T) {
		// No maps: observed hops stand in, and one that stays silent is
		// reported obsReportLimit times, then forgotten, then re-adopted.
		h := &hopHarness{tb: t, ref: newRefHops()}
		h.observe(1, false)
		h.observe(2, false)
		h.declare(0)
		for r := 1; r <= obsReportLimit; r++ {
			h.now += hmTimeout + 1
			h.observe(2, false)
			h.sweep()
		}
		if h.fs.hopIndex(1) >= 0 || len(h.fs.hops()) != 1 {
			t.Fatalf("silent observed hop not forgotten after %d reports: %+v", obsReportLimit, h.fs.hops())
		}
		h.observe(1, true)
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
	f.Add([]byte{0, 0, 5, 0, 3, 41, 4, 0, 3, 41, 4, 0, 3, 41, 4, 0, 1, 0})
	f.Add([]byte{7, 79, 15, 79, 5, 255, 6, 1, 14, 2, 5, 0, 3, 60, 4, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runHopScript(t, script)
	})
}
