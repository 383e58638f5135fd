package relay

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// TestIdleFlowFootprint prices a resident flow the way the churn workload
// fills a table with them: 2000 graphs (L=3, d=2, d'=3) over 12 relays on
// ChanNetwork, each established, proven with one message and abandoned by
// its source. What the nine relays of a graph still hold between them once
// every timer has run out is the flow's footprint; it bounds how many
// strangers' flows a relay can afford to admit (§9.2). At rest a flow is one
// record at every relay, its hop table and routing block inline: 4.0 KB in 9
// heap objects per graph, one object per relay.
func TestIdleFlowFootprint(t *testing.T) {
	const (
		flows    = 2000
		l, d, dp = 3, 2, 3
		relays   = 12
	)
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the flow's")
	}
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(1)))
	defer net.Close()
	srcs := make([]wire.NodeID, dp)
	for i := range srcs {
		srcs[i] = wire.NodeID(1000 + i)
		if err := net.Attach(srcs[i], func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	pool := make([]wire.NodeID, relays)
	nodes := make(map[wire.NodeID]*Node, relays)
	for i := range pool {
		pool[i] = wire.NodeID(i + 1)
		n, err := New(pool[i], net, Config{
			RoundWait: 20 * time.Millisecond, SetupWait: 20 * time.Millisecond,
			FlowTTL: time.Hour, GCInterval: time.Hour, MaxFlows: 1 << 15,
			Rng: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[pool[i]] = n
	}
	heap := func() (bytes, objects uint64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapObjects
	}
	dial := func(rng *rand.Rand) {
		picked := make([]wire.NodeID, 0, l*dp)
		for _, i := range rng.Perm(relays)[:l*dp] {
			picked = append(picked, pool[i])
		}
		g, err := core.Build(core.Spec{
			L: l, D: d, DPrime: dp, Relays: picked, Dest: picked[0], Sources: srcs,
			Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(rng.Int63())),
		})
		if err != nil {
			t.Fatal(err)
		}
		snd := source.New(net, g, source.Config{}, rand.New(rand.NewSource(rng.Int63())))
		if err := snd.Establish(); err != nil {
			t.Fatal(err)
		}
		graph := make([]*Node, len(g.Relays))
		for i, id := range g.Relays {
			graph[i] = nodes[id]
		}
		if !awaitFlows(simnet.Wall, 5*time.Second, g, graph...) {
			t.Fatal("flow not established")
		}
		if err := snd.Send(make([]byte, 1200)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-nodes[g.Dest].Received():
		case <-time.After(5 * time.Second):
			t.Fatal("message not delivered")
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		dial(rng) // warm the shards' scratch and the maps' first growth steps
	}
	time.Sleep(100 * time.Millisecond)
	b0, o0 := heap()
	for i := 0; i < flows; i++ {
		dial(rng)
	}
	time.Sleep(100 * time.Millisecond) // every round and set-up deadline has run out
	b1, o1 := heap()
	perFlowKB := float64(b1-b0) / flows / 1024
	perFlowObj := float64(o1-o0) / flows
	t.Logf("%d idle flows over %d relays: %.2f KB and %.1f heap objects per flow", flows, relays, perFlowKB, perFlowObj)
	if perFlowKB > 4 || perFlowObj > 10 {
		t.Errorf("an idle flow costs %.2f KB in %.1f objects across its relays, want at most 4 KB in 10", perFlowKB, perFlowObj)
	}
}
