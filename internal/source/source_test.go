package source

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// buildStack wires endpoints, relays, a graph, and a sender on an unshaped
// in-memory overlay.
func buildStack(t *testing.T, l, d, dp int, seed int64) (
	*overlay.ChanNetwork, *Endpoints, *Sender, map[wire.NodeID]*relay.Node, *core.Graph,
) {
	t.Helper()
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(seed)))
	relays := make([]wire.NodeID, l*dp)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	srcIDs := make([]wire.NodeID, dp)
	for i := range srcIDs {
		srcIDs[i] = wire.NodeID(900 + i)
	}
	eps, err := AttachEndpoints(net, srcIDs)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[wire.NodeID]*relay.Node)
	for _, id := range relays {
		n, err := relay.New(id, net, relay.Config{
			SetupWait: 50 * time.Millisecond,
			RoundWait: 50 * time.Millisecond,
			Rng:       rand.New(rand.NewSource(seed + int64(id))),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	g, err := core.Build(core.Spec{
		L: l, D: d, DPrime: dp,
		Relays: relays, Dest: relays[len(relays)-1], Sources: srcIDs,
		Recode: true, Scramble: true,
		Rng: rand.New(rand.NewSource(seed + 500)),
	})
	if err != nil {
		t.Fatal(err)
	}
	snd := New(net, g, Config{ChunkPayload: 256}, rand.New(rand.NewSource(seed+501)))
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
		eps.Close()
		net.Close()
	})
	return net, eps, snd, nodes, g
}

func TestSendBeforeEstablish(t *testing.T) {
	_, _, snd, _, _ := buildStack(t, 2, 2, 2, 1)
	if err := snd.Send([]byte("early")); err != ErrNotEstablished {
		t.Fatalf("want ErrNotEstablished, got %v", err)
	}
}

func TestEstablishmentAckReachesEndpoints(t *testing.T) {
	_, eps, snd, _, _ := buildStack(t, 4, 2, 3, 2)
	if err := snd.Establish(); err != nil {
		t.Fatal(err)
	}
	if err := snd.WaitEstablished(eps, 5*time.Second); err != nil {
		t.Fatalf("ack never arrived: %v", err)
	}
}

func TestWaitEstablishedTimesOutWithoutTraffic(t *testing.T) {
	_, eps, snd, _, _ := buildStack(t, 2, 2, 2, 3)
	// No Establish call: no ack can arrive.
	if err := snd.WaitEstablished(eps, 50*time.Millisecond); err != ErrAckTimeout {
		t.Fatalf("want ErrAckTimeout, got %v", err)
	}
}

func TestWaitEstablishedIgnoresForeignAcks(t *testing.T) {
	net, eps, snd, _, _ := buildStack(t, 2, 2, 2, 4)
	// Inject an ack for a flow not in this graph.
	if err := net.Attach(5555, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	bogus := &wire.Packet{Type: wire.MsgAck, Flow: 0xdddd}
	net.Send(5555, eps.ids[0], bogus.Marshal())
	if err := snd.WaitEstablished(eps, 100*time.Millisecond); err != ErrAckTimeout {
		t.Fatalf("foreign ack accepted: %v", err)
	}
}

func TestAckPropagatesFromMidGraphReceiver(t *testing.T) {
	// Find a seed placing the destination mid-graph, then check the ack
	// still reaches the endpoints (re-stamped across multiple hops).
	for seed := int64(1); seed < 40; seed++ {
		net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(seed)))
		relays := make([]wire.NodeID, 8) // L=4, dp=2
		for i := range relays {
			relays[i] = wire.NodeID(i + 1)
		}
		srcIDs := []wire.NodeID{900, 901}
		eps, err := AttachEndpoints(net, srcIDs)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []*relay.Node
		for _, id := range relays {
			n, err := relay.New(id, net, relay.Config{
				SetupWait: 50 * time.Millisecond, RoundWait: 50 * time.Millisecond,
				Rng: rand.New(rand.NewSource(seed + int64(id))),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		g, err := core.Build(core.Spec{
			L: 4, D: 2, DPrime: 2,
			Relays: relays, Dest: relays[0], Sources: srcIDs,
			Recode: true, Scramble: true,
			Rng: rand.New(rand.NewSource(seed + 77)),
		})
		if err != nil {
			t.Fatal(err)
		}
		cleanup := func() {
			for _, n := range nodes {
				n.Close()
			}
			eps.Close()
			net.Close()
		}
		if g.DestStage == 1 || g.DestStage == 4 {
			cleanup()
			continue
		}
		snd := New(net, g, Config{}, rand.New(rand.NewSource(seed)))
		if err := snd.Establish(); err != nil {
			t.Fatal(err)
		}
		err = snd.WaitEstablished(eps, 5*time.Second)
		cleanup()
		if err != nil {
			t.Fatalf("mid-graph ack (dest stage %d): %v", g.DestStage, err)
		}
		return
	}
	t.Fatal("no seed placed the destination mid-graph")
}

func TestSenderDataDelivery(t *testing.T) {
	_, eps, snd, nodes, g := buildStack(t, 3, 2, 2, 5)
	if err := snd.Establish(); err != nil {
		t.Fatal(err)
	}
	if err := snd.WaitEstablished(eps, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("stream"), 300)
	if err := snd.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := snd.Counters().Get("rounds_sent"); got == 0 {
		t.Fatal("no rounds sent")
	}
	select {
	case m := <-nodes[g.Dest].Received():
		if !bytes.Equal(m.Data, msg) {
			t.Fatal("mismatch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestAttachEndpointsRollbackOnFailure(t *testing.T) {
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(6)))
	defer net.Close()
	// Pre-occupy id 901 so the second attach fails.
	if err := net.Attach(901, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachEndpoints(net, []wire.NodeID{900, 901}); err == nil {
		t.Fatal("conflicting attach accepted")
	}
	// 900 must have been rolled back: attaching it again succeeds.
	if err := net.Attach(900, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatalf("rollback failed: %v", err)
	}
}

func TestRatePacing(t *testing.T) {
	net, eps, _, nodes, g := buildStack(t, 2, 2, 2, 9)
	_ = eps
	// A paced sender: 32 KiB at 1 Mb/s should take ≈ 0.25 s.
	snd := New(net, g, Config{ChunkPayload: 4096, RateBps: 1_000_000},
		rand.New(rand.NewSource(9)))
	if err := snd.Establish(); err != nil {
		t.Fatal(err)
	}
	relay.AwaitEstablished(simnet.Wall, 5*time.Second, []*relay.Node{nodes[g.Dest]}, []wire.FlowID{g.Flows[g.Dest]})
	msg := make([]byte, 32<<10)
	start := time.Now()
	if err := snd.Send(msg); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if el < 175*time.Millisecond {
		t.Fatalf("pacing ineffective: Send returned in %v", el)
	}
	if el > time.Second {
		t.Fatalf("pacing too aggressive: %v", el)
	}
	select {
	case m := <-nodes[g.Dest].Received():
		if !bytes.Equal(m.Data, msg) {
			t.Fatal("paced transfer corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("paced transfer not delivered")
	}
}

func TestGraphAccessor(t *testing.T) {
	_, _, snd, _, g := buildStack(t, 2, 2, 2, 7)
	if snd.Graph() != g {
		t.Fatal("Graph() should expose the underlying graph")
	}
}

// Concurrent Send calls on one flow must not interleave their messages'
// rounds: the receiver reassembles one byte stream per flow, and a round of
// another message landing mid-message makes it read ciphertext as a length
// prefix and wait, on an unbroken stream, for gigabytes that never come.
// Pacing sleeps between rounds, which is where a second caller used to cut in.
func TestConcurrentSendOneFlow(t *testing.T) {
	const senders, perSender = 4, 50
	net, eps, _, nodes, g := buildStack(t, 2, 2, 2, 11)
	snd := New(net, g, Config{ChunkPayload: 256, RateBps: 16_000_000}, rand.New(rand.NewSource(11)))
	if err := snd.EstablishAndWait(eps, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, senders*perSender)
	msgs := make([][][]byte, senders)
	rng := rand.New(rand.NewSource(12))
	for w := range msgs {
		for i := 0; i < perSender; i++ {
			// About two and a half 256-byte rounds each, every one distinct.
			m := make([]byte, 560+rng.Intn(80))
			rng.Read(m)
			m[0], m[1] = byte(w), byte(i)
			msgs[w] = append(msgs[w], m)
			want[string(m)] = true
		}
	}
	got := make(chan []byte, senders*perSender)
	go func() {
		for m := range nodes[g.Dest].Received() {
			got <- m.Data
		}
	}()
	errs := make(chan error, senders)
	for _, batch := range msgs {
		go func() {
			for _, m := range batch {
				if err := snd.Send(m); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range msgs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for n := 0; n < senders*perSender; n++ {
		select {
		case m := <-got:
			if !want[string(m)] {
				t.Fatalf("delivered a message nobody sent, or twice (%d bytes)", len(m))
			}
			delete(want, string(m))
		case <-deadline:
			t.Fatalf("delivered %d of %d messages; the stream wedged", n, senders*perSender)
		}
	}
}
