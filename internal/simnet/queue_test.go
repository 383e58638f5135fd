package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// --- event queue edge cases ---

// Cancel racing the fire at the same instant: a timer stopped at the very
// virtual instant it is due must not run, and Stop must report it was
// still pending.
func TestQueueCancelVsFireSameInstant(t *testing.T) {
	c := NewVirtualClock()
	fired := false
	var tm Timer
	// Both events land at t=10ms; the canceller is armed first so it
	// fires first (clock-class seq order) and stops the victim "at the
	// same instant" it would fire.
	c.AfterFunc(10*time.Millisecond, func() {
		if !tm.Stop() {
			t.Error("Stop at the due instant should still report pending")
		}
	})
	tm = c.AfterFunc(10*time.Millisecond, func() { fired = true })
	c.RunFor(20 * time.Millisecond)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report not pending")
	}
}

// A timer handle must stay safe (and inert) after its slab record was
// recycled and re-used by a later timer: generation counters protect
// against cross-timer cancellation.
func TestQueueStaleHandleAfterRecycle(t *testing.T) {
	c := NewVirtualClock()
	t1 := c.AfterFunc(time.Millisecond, func() {})
	c.RunFor(2 * time.Millisecond) // t1 fires; its record returns to the freelist
	fired := false
	c.AfterFunc(time.Millisecond, func() { fired = true }) // likely reuses t1's slot
	if t1.Stop() {
		t.Fatal("stale handle Stop claimed it was pending")
	}
	c.RunFor(2 * time.Millisecond)
	if !fired {
		t.Fatal("stale Stop cancelled an unrelated timer occupying the recycled slot")
	}
}

// --- reference-model fuzz: the queue fires in sorted canonical order ---

// refEvent mirrors the canonical key; the reference model is a sort.
type refEvent struct {
	when  int64
	class uint8
	from  uint64
	to    uint64
	seq   uint64
	id    int
}

func refLess(a, b refEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.to != b.to {
		return a.to < b.to
	}
	return a.seq < b.seq
}

// runQueueVsReference schedules a pseudo-random mix of same-instant, near
// and far events — with incremental insertion while draining, plus
// cancellations — and checks the queue pops them in exactly the reference
// order.
func runQueueVsReference(t *testing.T, seed int64, nEvents int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := newEventQueue()
	var live []refEvent
	var cancelled map[int]bool = map[int]bool{}
	handles := map[int]struct {
		ref evRef
		gen uint32
	}{}
	nextID := 0
	now := int64(0)

	scheduleOne := func() {
		var d int64
		switch rng.Intn(4) {
		case 0: // the current instant: ties broken by class, link and seq
		case 1: // microseconds
			d = rng.Int63n(1 << 10)
		case 2: // milliseconds
			d = rng.Int63n(1 << 24)
		default: // up to minutes
			d = rng.Int63n(1 << 37)
		}
		re := refEvent{
			when:  now + d,
			class: uint8(rng.Intn(2)),
			from:  uint64(rng.Intn(4)),
			to:    uint64(rng.Intn(4)),
			seq:   uint64(nextID),
			id:    nextID,
		}
		nextID++
		i := q.slab.alloc()
		e := q.slab.at(i)
		e.when, e.class, e.from, e.to, e.seq = re.when, re.class, re.from, re.to, re.seq
		e.dstIdx = int32(re.id)
		q.schedule(i)
		handles[re.id] = struct {
			ref evRef
			gen uint32
		}{i, e.gen}
		live = append(live, re)
	}

	for i := 0; i < nEvents/2; i++ {
		scheduleOne()
	}
	popped := 0
	for {
		// Interleave: sometimes add more events or cancel a pending one
		// mid-drain, exercising insertion into drained regions.
		if nextID < nEvents && rng.Intn(3) == 0 {
			scheduleOne()
		}
		if len(live) > 0 && rng.Intn(7) == 0 {
			k := rng.Intn(len(live))
			id := live[k].id
			h := handles[id]
			if q.slab.at(h.ref).gen == h.gen {
				q.slab.at(h.ref).stopped = true
				cancelled[id] = true
				live = append(live[:k], live[k+1:]...)
			}
		}
		i, ok := q.peek()
		if !ok {
			if nextID < nEvents {
				scheduleOne()
				continue
			}
			break
		}
		q.pop()
		e := q.slab.at(i)
		gotID := int(e.dstIdx)
		if e.when > now {
			now = e.when
		}
		// Reference: the minimum of live events.
		best := 0
		for k := 1; k < len(live); k++ {
			if refLess(live[k], live[best]) {
				best = k
			}
		}
		if len(live) == 0 {
			t.Fatalf("seed %d: queue popped id %d but reference is empty", seed, gotID)
		}
		wantID := live[best].id
		if gotID != wantID {
			t.Fatalf("seed %d: pop %d = id %d (when %d), reference wants id %d (when %d)",
				seed, popped, gotID, e.when, wantID, live[best].when)
		}
		if cancelled[gotID] {
			t.Fatalf("seed %d: cancelled event %d fired", seed, gotID)
		}
		q.slab.release(i)
		live = append(live[:best], live[best+1:]...)
		popped++
	}
	if len(live) != 0 {
		t.Fatalf("seed %d: queue drained but %d reference events never fired", seed, len(live))
	}
	if q.slab.live != 0 {
		t.Fatalf("seed %d: slab leaks %d records after drain", seed, q.slab.live)
	}
}

func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runQueueVsReference(t, seed, 400)
	}
}

func FuzzQueueMatchesReference(f *testing.F) {
	f.Add(int64(42))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		runQueueVsReference(t, seed, 150)
	})
}
