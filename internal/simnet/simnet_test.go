package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"infoslicing/internal/wire"
)

func TestVirtualClockFiresInOrder(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	c.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	c.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	c.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	c.RunUntilIdle()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("fired out of order: %v", got)
	}
	if el := c.Elapsed(); el != 30*time.Millisecond {
		t.Fatalf("elapsed %v, want 30ms", el)
	}
}

func TestVirtualClockStopTimer(t *testing.T) {
	c := NewVirtualClock()
	fired := false
	tm := c.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	c.RunUntilIdle()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualClockEvery(t *testing.T) {
	c := NewVirtualClock()
	n := 0
	task := c.Every(10*time.Millisecond, func() { n++ })
	c.RunFor(35 * time.Millisecond)
	if n != 3 {
		t.Fatalf("ticked %d times in 35ms at 10ms, want 3", n)
	}
	task.Stop()
	c.RunFor(50 * time.Millisecond)
	if n != 3 {
		t.Fatalf("stopped task kept ticking: %d", n)
	}
}

// A timer callback's derived work — handed to another goroutine under a
// Hold — must complete before the next event fires.
func TestVirtualClockQuiescence(t *testing.T) {
	c := NewVirtualClock()
	var stage atomic.Int32
	c.AfterFunc(time.Millisecond, func() {
		release := c.Hold()
		go func() {
			defer release()
			time.Sleep(5 * time.Millisecond) // real time: simulate slow work
			stage.Store(1)
		}()
	})
	sawOne := false
	c.AfterFunc(2*time.Millisecond, func() {
		sawOne = stage.Load() == 1
	})
	c.RunUntilIdle()
	if !sawOne {
		t.Fatal("second event fired before the first event's work quiesced")
	}
}

func TestVirtualClockSleepInGoGoroutine(t *testing.T) {
	c := NewVirtualClock()
	var wokeAt time.Duration
	c.Go(func() {
		c.Sleep(25 * time.Millisecond)
		wokeAt = c.Elapsed()
	})
	c.RunUntilIdle()
	if wokeAt != 25*time.Millisecond {
		t.Fatalf("sleeper woke at %v, want 25ms", wokeAt)
	}
}

func TestSimNetDeliversWithDelay(t *testing.T) {
	s := NewScript(1, LinkProfile{Delay: 2 * time.Millisecond})
	var at time.Duration
	if err := s.Net.Attach(2, func(from wire.NodeID, data []byte) { at = s.Elapsed() }); err != nil {
		t.Fatal(err)
	}
	if err := s.Net.Attach(1, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Net.Send(1, 2, []byte{7, 0, 0}); err != nil {
		t.Fatal(err)
	}
	s.Clk.RunUntilIdle()
	if at != 2*time.Millisecond {
		t.Fatalf("delivered at %v, want 2ms", at)
	}
	tr := s.Net.Trace()
	if len(tr) != 1 || tr[0].From != 1 || tr[0].To != 2 || tr[0].Type != 7 {
		t.Fatalf("trace %+v", tr)
	}
}

func TestSimNetFailDropsInFlight(t *testing.T) {
	s := NewScript(2, LinkProfile{Delay: 10 * time.Millisecond})
	got := 0
	s.Net.Attach(2, func(wire.NodeID, []byte) { got++ })
	s.Net.Attach(1, func(wire.NodeID, []byte) {})
	s.Net.Send(1, 2, []byte{1})
	s.KillAt(5*time.Millisecond, 2)
	s.ReviveAt(6*time.Millisecond, 2)
	s.Clk.RunUntilIdle()
	if got != 0 {
		t.Fatal("in-flight packet survived a crash")
	}
	// Sent after revival: delivered.
	s.Net.Send(1, 2, []byte{1})
	s.Clk.RunUntilIdle()
	if got != 1 {
		t.Fatal("post-revival packet lost")
	}
}

func TestSimNetPartitionAndHeal(t *testing.T) {
	s := NewScript(3, LinkProfile{Delay: time.Millisecond})
	got := 0
	s.Net.Attach(2, func(wire.NodeID, []byte) { got++ })
	s.Net.Attach(1, func(wire.NodeID, []byte) {})
	s.Net.Partition([]wire.NodeID{1}, []wire.NodeID{2})
	s.Net.Send(1, 2, []byte{1})
	s.Clk.RunUntilIdle()
	if got != 0 {
		t.Fatal("packet crossed a partition")
	}
	s.Net.HealPartition([]wire.NodeID{1}, []wire.NodeID{2})
	s.Net.Send(1, 2, []byte{1})
	s.Clk.RunUntilIdle()
	if got != 1 {
		t.Fatal("packet lost after heal")
	}
}

func TestSimNetLossDuplicateReorderDeterministic(t *testing.T) {
	run := func() (string, int) {
		s := NewScript(42, LinkProfile{
			Delay: time.Millisecond, Jitter: time.Millisecond,
			Loss: 0.2, Duplicate: 0.2, Reorder: 0.3, ReorderDelay: 3 * time.Millisecond,
		})
		got := 0
		s.Net.Attach(2, func(wire.NodeID, []byte) { got++ })
		s.Net.Attach(1, func(wire.NodeID, []byte) {})
		for i := 0; i < 100; i++ {
			s.Net.Send(1, 2, []byte{byte(i)})
		}
		s.Clk.RunUntilIdle()
		return s.Net.TraceString(), got
	}
	t1, g1 := run()
	t2, g2 := run()
	if t1 != t2 || g1 != g2 {
		t.Fatalf("same seed diverged: %d vs %d deliveries", g1, g2)
	}
	if g1 == 100 || g1 == 0 {
		t.Fatalf("loss/duplication had no effect: %d deliveries", g1)
	}
}

// arrivalTimes attaches receivers 3 and 4 and senders 1 and 2, runs send,
// and returns every delivery's virtual arrival time in delivery order.
func arrivalTimes(t *testing.T, def LinkProfile, send func(n *SimNet)) []time.Duration {
	t.Helper()
	s := NewScript(1, def)
	var at []time.Duration
	for id := wire.NodeID(1); id <= 4; id++ {
		if err := s.Net.Attach(id, func(wire.NodeID, []byte) { at = append(at, s.Elapsed()) }); err != nil {
			t.Fatal(err)
		}
	}
	send(s.Net)
	s.Clk.RunUntilIdle()
	return at
}

// 1250 bytes at 10 Mb/s leave in exactly 1 ms.
var rated = LinkProfile{Delay: 2 * time.Millisecond, Rate: 10_000_000}

func TestSimNetEgressRateSerializesSender(t *testing.T) {
	// Back-to-back packets from one node leave one at a time, whichever link
	// each takes: they arrive exactly one transmission time apart.
	at := arrivalTimes(t, rated, func(n *SimNet) {
		for i := 0; i < 5; i++ {
			n.Send(1, wire.NodeID(3+i%2), make([]byte, 1250))
		}
	})
	want := "[3ms 4ms 5ms 6ms 7ms]"
	if fmt.Sprint(at) != want {
		t.Fatalf("arrivals %v, want %s", at, want)
	}
}

func TestSimNetEgressRatePerSender(t *testing.T) {
	at := arrivalTimes(t, rated, func(n *SimNet) {
		n.Send(1, 3, make([]byte, 1250))
		n.Send(2, 3, make([]byte, 1250))
	})
	if want := "[3ms 3ms]"; fmt.Sprint(at) != want {
		t.Fatalf("two senders queued behind each other: arrivals %v, want %s", at, want)
	}
}

func TestSimNetEgressRateLinkOverride(t *testing.T) {
	at := arrivalTimes(t, rated, func(n *SimNet) {
		n.SetLink(1, 3, LinkProfile{Delay: 2 * time.Millisecond, Rate: 5_000_000})
		for i := 0; i < 3; i++ {
			n.Send(1, 3, make([]byte, 1250))
		}
	})
	if want := "[4ms 6ms 8ms]"; fmt.Sprint(at) != want {
		t.Fatalf("override rate ignored: arrivals %v, want %s", at, want)
	}
}

func TestAwaitCondStopsEarly(t *testing.T) {
	c := NewVirtualClock()
	n := 0
	c.Every(time.Millisecond, func() { n++ })
	if !c.AwaitCond(time.Second, func() bool { return n >= 5 }) {
		t.Fatal("condition never held")
	}
	if el := c.Elapsed(); el != 5*time.Millisecond {
		t.Fatalf("stopped at %v, want 5ms", el)
	}
	if c.AwaitCond(10*time.Millisecond, func() bool { return false }) {
		t.Fatal("false condition reported true")
	}
	if el := c.Elapsed(); el != 15*time.Millisecond {
		t.Fatalf("deadline not honored: %v", el)
	}
}

func TestSeedDerivationReplayable(t *testing.T) {
	old := BaseSeed()
	defer SetBaseSeed(old)
	SetBaseSeed(123)
	a1, a2 := NextSeed(), NextSeed()
	SetBaseSeed(123)
	if b1, b2 := NextSeed(), NextSeed(); a1 != b1 || a2 != b2 {
		t.Fatal("seed derivation not replayable")
	}
	if a1 == a2 {
		t.Fatal("consecutive seeds collide")
	}
}

func TestEventually(t *testing.T) {
	n := 0
	if !Eventually(time.Second, time.Millisecond, func() bool { n++; return n > 3 }) {
		t.Fatal("condition never observed")
	}
	if Eventually(10*time.Millisecond, time.Millisecond, func() bool { return false }) {
		t.Fatal("false condition reported true")
	}
}

// 10^5 attached nodes under scripted churn cost a bounded number of bytes
// each: the node arena, its id index and one handler pointer per node, plus
// whatever the events in flight hold.
func TestSimNet100kChurnBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5 nodes: skipped in -short")
	}
	const nodes = 100_000
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	s := &Script{Clk: NewVirtualClock()}
	s.Net = NewSimNet(s.Clk, 11, LinkProfile{Delay: time.Millisecond})
	s.Net.SetPooledPayloads(true)
	delivered := 0
	noop := func(wire.NodeID, []byte) { delivered++ }
	for id := wire.NodeID(1); id <= nodes; id++ {
		if err := s.Net.Attach(id, noop); err != nil {
			t.Fatal(err)
		}
	}
	// A quarter of the nodes go down once and come back.
	rng := rand.New(rand.NewSource(12))
	for id := wire.NodeID(1); id <= nodes/4; id++ {
		down := time.Duration(1+rng.Intn(40)) * time.Millisecond
		s.KillAt(down, id)
		s.ReviveAt(down+time.Duration(1+rng.Intn(10))*time.Millisecond, id)
	}
	// A tenth of the nodes, drawn afresh, send to a random peer each
	// virtual millisecond.
	pkt := make([]byte, 64)
	for ms := 0; ms < 50; ms++ {
		for k := 0; k < nodes/10; k++ {
			_ = s.Net.Send(wire.NodeID(1+rng.Intn(nodes)), wire.NodeID(1+rng.Intn(nodes)), pkt)
		}
		s.Run(time.Duration(ms+1) * time.Millisecond)
	}
	s.Clk.RunUntilIdle()

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	lost := s.Net.Counters().Get("lost")
	if delivered == 0 || lost == 0 {
		t.Fatalf("scenario did not run: %d delivered, %d lost to churn", delivered, lost)
	}
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("10^5 nodes under churn: %d delivered, %d lost, %.0f bytes/node heap", delivered, lost, perNode)
	if perNode > 256 {
		t.Fatalf("the network costs %.0f bytes/node, want <= 256", perNode)
	}
	runtime.KeepAlive(s)
}

// BenchmarkSimSendSteadyState pins the closure-free pooled send+deliver
// path at zero allocations per packet.
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
