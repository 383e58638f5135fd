package simnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"infoslicing/internal/wire"
)

// --- session-distribution churn (satellite: trace-driven churn) ---

func TestSessionScheduleDeterministic(t *testing.T) {
	nodes := []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	spec := SessionChurnSpec{
		Nodes:    nodes,
		Session:  SessionDist{Kind: DistWeibull, Shape: 0.6, Scale: 200 * time.Millisecond},
		Downtime: SessionDist{Kind: DistLognormal, Shape: 0.8, Scale: 50 * time.Millisecond},
		Start:    10 * time.Millisecond,
		Stop:     2 * time.Second,
		Seed:     42,
	}
	a := SessionSchedule(spec)
	b := SessionSchedule(spec)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	spec.Seed = 43
	c := SessionSchedule(spec)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	// Per-node sanity: transitions alternate down, up, down, ... and stay
	// inside (Start, Stop).
	last := map[wire.NodeID]bool{}
	for _, tr := range a {
		if tr.At <= spec.Start || tr.At >= 2*time.Second {
			t.Fatalf("transition outside window: %+v", tr)
		}
		prev, seen := last[tr.Node]
		if !seen && tr.Up {
			t.Fatalf("node %d revived before first failure", tr.Node)
		}
		if seen && prev == tr.Up {
			t.Fatalf("node %d: consecutive transitions in the same direction", tr.Node)
		}
		last[tr.Node] = tr.Up
	}
}

// --- universe determinism at scale ---

func universeTraceHash(t *testing.T, seed int64, nodes int) (uint64, int64) {
	t.Helper()
	clk := NewVirtualClock()
	net := NewSimNet(clk, seed, LinkProfile{Delay: time.Millisecond})
	net.EnableTrace()
	s := &Script{Clk: clk, Net: net}
	u, err := NewUniverse(s, UniverseConfig{
		Nodes: nodes, Degree: 4, Walkers: nodes / 10, HopDelay: time.Millisecond, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleSessionChurn(SessionChurnSpec{
		Nodes:    u.NodeIDs()[:nodes/4],
		Session:  SessionDist{Kind: DistWeibull, Shape: 0.6, Scale: 8 * time.Millisecond},
		Downtime: SessionDist{Kind: DistLognormal, Shape: 0.8, Scale: 4 * time.Millisecond},
		Start:    2 * time.Millisecond,
		Stop:     28 * time.Millisecond,
		Seed:     seed + 1,
	})
	u.Seed()
	u.Run(30 * time.Millisecond)
	if dropped := net.Counters().Get("trace_dropped"); dropped != 0 {
		t.Fatalf("the trace ring dropped %d events", dropped)
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, ev := range net.Trace() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(ev.At.Nanoseconds()))
		binary.LittleEndian.PutUint32(buf[8:12], uint32(ev.From))
		buf[12], buf[13], buf[14] = byte(ev.To), byte(ev.To>>8), byte(ev.To>>16)
		buf[15] = byte(ev.Type)
		h.Write(buf[:])
	}
	return h.Sum64(), u.Deliveries()
}

// A churned 10^4-node universe replays to the same trace hash and
// delivery count from its seed, and a different seed changes the trace.
func TestUniverseDeterminism10k(t *testing.T) {
	const nodes = 10_000
	h1, d1 := universeTraceHash(t, 7, nodes)
	h2, d2 := universeTraceHash(t, 7, nodes)
	if d1 == 0 {
		t.Fatal("universe made no deliveries")
	}
	if h1 != h2 || d1 != d2 {
		t.Fatalf("same seed, different universe: hash %x, %d deliveries vs hash %x, %d", h1, d1, h2, d2)
	}
	if hx, _ := universeTraceHash(t, 8, nodes); hx == h1 {
		t.Fatal("different seed produced an identical trace")
	}
}

// --- bounded memory at 10^5 nodes (acceptance: bytes/node) ---

func TestUniverse100kChurnBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-node universe: skipped in -short")
	}
	const nodes = 100_000
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	clk := NewVirtualClock()
	net := NewSimNet(clk, 11, LinkProfile{Delay: time.Millisecond})
	s := &Script{Clk: clk, Net: net}
	u, err := NewUniverse(s, UniverseConfig{Nodes: nodes, Degree: 4, Walkers: nodes / 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Scripted churn over a quarter of the universe while walkers run.
	sched := s.ScheduleSessionChurn(SessionChurnSpec{
		Nodes:    u.NodeIDs()[:nodes/4],
		Session:  SessionDist{Kind: DistWeibull, Shape: 0.6, Scale: 20 * time.Millisecond},
		Downtime: SessionDist{Kind: DistLognormal, Shape: 0.8, Scale: 10 * time.Millisecond},
		Start:    5 * time.Millisecond,
		Stop:     45 * time.Millisecond,
		Seed:     12,
	})
	u.Seed()
	u.Run(50 * time.Millisecond)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if u.Deliveries() == 0 || len(sched) == 0 {
		t.Fatalf("scenario did not run: %d deliveries, %d transitions", u.Deliveries(), len(sched))
	}
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("10^5-node churn scenario: %d deliveries, %d churn transitions, %.0f bytes/node heap",
		u.Deliveries(), len(sched), perNode)
	if perNode > 2048 {
		t.Fatalf("universe costs %.0f bytes/node, want <= 2048", perNode)
	}
	// Keep the universe alive past ReadMemStats so its memory is counted.
	runtime.KeepAlive(u)
}

// --- scale benchmarks (gated in bench_baseline.json) ---

func benchUniverse(b *testing.B, nodes int) {
	clk := NewVirtualClock()
	net := NewSimNet(clk, 7, LinkProfile{Delay: time.Millisecond})
	s := &Script{Clk: clk, Net: net}
	u, err := NewUniverse(s, UniverseConfig{
		Nodes: nodes, Degree: 4, Walkers: nodes / 10, HopDelay: time.Millisecond, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	u.Seed()
	u.Run(2 * time.Millisecond) // warm: walkers in flight, slab and pools grown
	start := u.Deliveries()
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		u.Run(2 * time.Millisecond) // one op = two hop rounds for every walker
	}
	wall := time.Since(t0)
	b.StopTimer()
	events := u.Deliveries() - start
	if events > 0 && wall > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/sec")
	}
}

// BenchmarkSimScale is the event core's scale benchmark (the A/B
// comparator against the pre-wheel heap core) at 10^3..10^5 nodes.
func BenchmarkSimScale(b *testing.B) {
	for _, nodes := range []int{1_000, 10_000, 100_000} {
		exp := 3
		for n := nodes; n > 1000; n /= 10 {
			exp++
		}
		b.Run(fmt.Sprintf("nodes=1e%d", exp), func(b *testing.B) {
			benchUniverse(b, nodes)
		})
	}
}

// BenchmarkSimSendSteadyState pins the closure-free pooled send+deliver
// path at zero allocations per packet (satellite: deliverFn closure fix).
func BenchmarkSimSendSteadyState(b *testing.B) {
	clk := NewVirtualClock()
	net := NewSimNet(clk, 1, LinkProfile{Delay: time.Millisecond})
	net.SetPooledPayloads(true)
	if err := net.Attach(1, func(wire.NodeID, []byte) {}); err != nil {
		b.Fatal(err)
	}
	if err := net.Attach(2, func(wire.NodeID, []byte) {}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	payload[0] = 1
	for i := 0; i < 64; i++ {
		_ = net.Send(1, 2, payload)
	}
	clk.RunUntilIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Send(1, 2, payload)
		clk.Step()
	}
}
