package relay

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// Waiters on the establish signal, several on each node, all wake while a
// burst of set-ups establishes their flows, and each relay records each flow
// admitted first and established once. A waiter for a flow that never
// arrives times out and leaves no goroutine behind.
func TestAwaitEstablishedBurst(t *testing.T) {
	h := newHarness(t, 3, 2, 3, 41, true)
	defer h.close()
	relays := slices.Collect(maps.Values(h.nodes))
	before := runtime.NumGoroutine()
	if AwaitEstablished(simnet.Wall, 20*time.Millisecond, relays[:1], []wire.FlowID{0xdead}) {
		t.Fatal("a flow nobody set up established")
	}
	// Another test's late timer may run a goroutine briefly; a leak stays.
	if !simnet.Eventually(time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("a timed-out waiter left %d goroutines behind", runtime.NumGoroutine()-before)
	}
	snds := make([]*source.Sender, 8)
	woke := make([]bool, len(snds))
	var wg sync.WaitGroup
	for f := range snds {
		g, err := core.Build(core.Spec{L: 3, D: 2, DPrime: 3, Relays: h.graph.Relays, Dest: h.graph.Relays[f],
			Sources: h.graph.Sources, Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(int64(100 + f)))})
		if err != nil {
			t.Fatal(err)
		}
		snds[f] = source.New(h.net, g, source.Config{ChunkPayload: 256}, rand.New(rand.NewSource(int64(200+f))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			woke[f] = awaitFlows(simnet.Wall, 10*time.Second, g, relays...)
		}()
	}
	for _, snd := range snds {
		if err := snd.Establish(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for f, snd := range snds {
		for _, n := range relays {
			ev := n.FlowEvents(snd.Graph().Flows[n.ID()])
			est := slices.IndexFunc(ev, func(e FlowEvent) bool { return e.Kind == EvEstablish })
			if !woke[f] || len(ev) == 0 || ev[0].Kind != EvAdmit || est < 0 ||
				slices.ContainsFunc(ev[est+1:], func(e FlowEvent) bool { return e.Kind == EvEstablish }) {
				t.Fatalf("waiter %d woke %v; relay %d recorded %v, want admit first and one establish", f, woke[f], n.ID(), ev)
			}
		}
	}
}
