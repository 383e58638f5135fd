package source

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// multiStack wires one shared transport, a relay pool, and one graph per
// flow (disjoint relay subsets so each flow has its own destination).
type multiStack struct {
	net    *overlay.ChanNetwork
	seed   int64
	graphs []*core.Graph
	dests  []*relay.Node
	nodes  []*relay.Node
}

func buildMultiStack(t *testing.T, flows, l, d int, seed int64) *multiStack {
	t.Helper()
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(seed)))
	perFlow := l * d
	st := &multiStack{net: net, seed: seed}
	nextID := wire.NodeID(1)
	for f := 0; f < flows; f++ {
		relays := make([]wire.NodeID, perFlow)
		for i := range relays {
			relays[i] = nextID
			nextID++
		}
		srcIDs := make([]wire.NodeID, d)
		for i := range srcIDs {
			srcIDs[i] = wire.NodeID(9000 + f*16 + i)
			if err := net.Attach(srcIDs[i], func(wire.NodeID, []byte) {}); err != nil {
				t.Fatal(err)
			}
		}
		var flowNodes []*relay.Node
		for _, id := range relays {
			n, err := relay.New(id, net, relay.Config{
				SetupWait: 50 * time.Millisecond,
				RoundWait: 50 * time.Millisecond,
				Rng:       rand.New(rand.NewSource(seed + int64(id))),
			})
			if err != nil {
				t.Fatal(err)
			}
			flowNodes = append(flowNodes, n)
			st.nodes = append(st.nodes, n)
		}
		g, err := core.Build(core.Spec{
			L: l, D: d, DPrime: d,
			Relays: relays, Dest: relays[perFlow-1], Sources: srcIDs,
			Recode: true, Scramble: true,
			Rng: rand.New(rand.NewSource(seed + 100 + int64(f))),
		})
		if err != nil {
			t.Fatal(err)
		}
		st.graphs = append(st.graphs, g)
		for _, n := range flowNodes {
			if n.ID() == g.Dest {
				st.dests = append(st.dests, n)
			}
		}
	}
	t.Cleanup(func() {
		for _, n := range st.nodes {
			n.Close()
		}
		net.Close()
	})
	return st
}

// open creates flow f's sender: one Sender per flow, sharing only the
// transport with the others.
func (st *multiStack) open(f int, cfg Config) *Sender {
	return New(st.net, st.graphs[f], cfg, rand.New(rand.NewSource(st.seed+1+int64(f))))
}

func (st *multiStack) establish(t *testing.T, snd *Sender, g *core.Graph, dest *relay.Node) {
	t.Helper()
	if err := snd.Establish(); err != nil {
		t.Fatal(err)
	}
	if !relay.AwaitEstablished(simnet.Wall, 5*time.Second, []*relay.Node{dest}, []wire.FlowID{g.Flows[g.Dest]}) {
		t.Fatal("flow did not establish")
	}
}

// Two flows from one process deliver independently over the shared
// transport, each with its own encoder state.
func TestTwoFlowsShareTransportDeliver(t *testing.T) {
	st := buildMultiStack(t, 2, 2, 2, 21)
	msgs := [][]byte{
		bytes.Repeat([]byte("flow-zero "), 120),
		bytes.Repeat([]byte("flow-one "), 140),
	}
	var snds [2]*Sender
	for f := 0; f < 2; f++ {
		snds[f] = st.open(f, Config{ChunkPayload: 256})
		st.establish(t, snds[f], st.graphs[f], st.dests[f])
		if err := snds[f].Send(msgs[f]); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 2; f++ {
		select {
		case m := <-st.dests[f].Received():
			if !bytes.Equal(m.Data, msgs[f]) {
				t.Fatalf("flow %d corrupted", f)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("flow %d not delivered", f)
		}
	}
	for f, snd := range snds {
		if snd.Counters().Get("rounds_sent") == 0 {
			t.Fatalf("flow %d: no rounds accounted", f)
		}
	}
}

// Regression for the per-flow lock scoping: a flow stalled in its pacer
// must not stop an unrelated flow on the same transport from making
// progress.
func TestStalledFlowDoesNotBlockOthers(t *testing.T) {
	st := buildMultiStack(t, 2, 2, 2, 23)

	// Flow 0 is the stalled one: paced to ~64 kb/s, sending 8 KiB takes
	// about one second.
	slow := st.open(0, Config{ChunkPayload: 2048, RateBps: 64_000})
	fast := st.open(1, Config{ChunkPayload: 256})
	st.establish(t, slow, st.graphs[0], st.dests[0])
	st.establish(t, fast, st.graphs[1], st.dests[1])

	bigMsg := make([]byte, 8<<10)
	rand.New(rand.NewSource(23)).Read(bigMsg)
	slowDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(slowDone)
		if err := slow.Send(bigMsg); err != nil {
			t.Errorf("slow flow: %v", err)
		}
	}()

	// While the slow flow is mid-send, the fast flow must complete several
	// round trips promptly.
	start := time.Now()
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 0xaa, byte(i)}
		if err := fast.Send(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-st.dests[1].Received():
			if !bytes.Equal(m.Data, msg) {
				t.Fatalf("fast flow message %d corrupted", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("fast flow starved behind stalled flow")
		}
	}
	fastElapsed := time.Since(start)
	select {
	case <-slowDone:
		t.Fatal("slow flow finished before fast flow; stall not exercised")
	default:
	}
	if fastElapsed > 700*time.Millisecond {
		t.Fatalf("fast flow took %v while the other flow was stalled", fastElapsed)
	}

	wg.Wait()
	select {
	case m := <-st.dests[0].Received():
		if !bytes.Equal(m.Data, bigMsg) {
			t.Fatal("slow flow corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow flow never delivered")
	}
}
