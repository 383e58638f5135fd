package relay

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// harness wires a full anonymous flow over an in-memory overlay.
type harness struct {
	net    *overlay.ChanNetwork
	graph  *core.Graph
	nodes  map[wire.NodeID]*Node
	sender *source.Sender
	dest   *Node
}

func fastCfg(seed int64) Config {
	return Config{
		SetupWait:  50 * time.Millisecond,
		RoundWait:  50 * time.Millisecond,
		FlowTTL:    time.Minute,
		GCInterval: time.Second,
		Rng:        rand.New(rand.NewSource(seed)),
	}
}

func newHarness(t *testing.T, l, d, dp int, seed int64, recode bool) *harness {
	t.Helper()
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(seed)))
	relays := make([]wire.NodeID, l*dp)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	sources := make([]wire.NodeID, dp)
	for i := range sources {
		sources[i] = wire.NodeID(1000 + i)
		if err := net.Attach(sources[i], func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make(map[wire.NodeID]*Node, len(relays))
	for _, id := range relays {
		n, err := New(id, net, fastCfg(seed+int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	g, err := core.Build(core.Spec{
		L: l, D: d, DPrime: dp,
		Relays: relays, Dest: relays[0], Sources: sources,
		Recode: recode, Scramble: true,
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	snd := source.New(net, g, source.Config{ChunkPayload: 256}, rand.New(rand.NewSource(seed+7)))
	return &harness{net: net, graph: g, nodes: nodes, sender: snd, dest: nodes[g.Dest]}
}

func (h *harness) close() {
	for _, n := range h.nodes {
		n.Close()
	}
	h.net.Close()
}

// checkBooks holds every relay of the graph to its books.
func (h *harness) checkBooks(t *testing.T) {
	t.Helper()
	for _, n := range h.nodes {
		checkBooks(t, n)
	}
}

func (h *harness) establish(t *testing.T) {
	t.Helper()
	if err := h.sender.Establish(); err != nil {
		t.Fatal(err)
	}
	if !awaitFlows(simnet.Wall, 5*time.Second, h.graph, slices.Collect(maps.Values(h.nodes))...) {
		t.Fatal("graph did not establish")
	}
}

// awaitFlows waits, at most max on clk, until each of nodes has established
// its flow of g.
func awaitFlows(clk simnet.Clock, max time.Duration, g *core.Graph, nodes ...*Node) bool {
	flows := make([]wire.FlowID, len(nodes))
	for i, n := range nodes {
		flows[i] = g.Flows[n.ID()]
	}
	return AwaitEstablished(clk, max, nodes, flows)
}

func (h *harness) waitMsg(t *testing.T, timeout time.Duration) []byte {
	t.Helper()
	select {
	case m := <-h.dest.Received():
		return m.Data
	case <-time.After(timeout):
		t.Fatal("message not delivered")
		return nil
	}
}

func TestEndToEndDelivery(t *testing.T) {
	for _, cfg := range []struct{ l, d, dp int }{
		{1, 2, 2}, {2, 2, 2}, {3, 2, 2}, {5, 3, 3}, {3, 2, 4}, {8, 3, 5},
	} {
		h := newHarness(t, cfg.l, cfg.d, cfg.dp, int64(cfg.l*31+cfg.dp), true)
		h.establish(t)
		msg := []byte("Let's meet at 5pm")
		if err := h.sender.Send(msg); err != nil {
			t.Fatal(err)
		}
		got := h.waitMsg(t, 5*time.Second)
		if !bytes.Equal(got, msg) {
			t.Fatalf("%+v: got %q", cfg, got)
		}
		h.checkBooks(t)
		h.close()
	}
}

func TestSendBeforeEstablishErrors(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 3, true)
	defer h.close()
	if err := h.sender.Send([]byte("too soon")); err == nil {
		t.Fatal("send before establish should error")
	}
}

func TestMultiRoundLargeMessage(t *testing.T) {
	h := newHarness(t, 3, 2, 3, 5, true)
	defer h.close()
	h.establish(t)
	msg := make([]byte, 10_000) // ~40 rounds at 256B chunks
	rand.New(rand.NewSource(5)).Read(msg)
	if err := h.sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := h.waitMsg(t, 10*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("large message corrupted")
	}
	h.checkBooks(t)
}

func TestMultipleMessagesInOrder(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 7, true)
	defer h.close()
	h.establish(t)
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), byte(i + 1), byte(i + 2)}
		if err := h.sender.Send(msg); err != nil {
			t.Fatal(err)
		}
		got := h.waitMsg(t, 5*time.Second)
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted: %v", i, got)
		}
	}
	h.checkBooks(t)
}

// Only the destination can read the data: every other relay's key fails to
// open the sealed stream, and no single relay observes plaintext.
func TestOnlyDestinationDelivers(t *testing.T) {
	h := newHarness(t, 4, 2, 2, 9, true)
	defer h.close()
	h.establish(t)
	if err := h.sender.Send([]byte("for Bob only")); err != nil {
		t.Fatal(err)
	}
	h.waitMsg(t, 5*time.Second)
	for id, n := range h.nodes {
		if id == h.graph.Dest {
			continue
		}
		if n.Counters().Get("messages_delivered") != 0 {
			t.Fatalf("relay %d delivered a message", id)
		}
	}
	h.checkBooks(t)
}

// With d' > d, killing d'-d relays in one stage before setup must not stop
// establishment of the rest of the graph nor data delivery.
func TestSetupSurvivesStageFailures(t *testing.T) {
	h := newHarness(t, 4, 2, 4, 11, true)
	defer h.close()
	killed := 0
	for _, id := range h.graph.Stages[1] {
		if id != h.graph.Dest && killed < 2 {
			h.net.Fail(id)
			killed++
		}
	}
	if err := h.sender.Establish(); err != nil {
		t.Fatal(err)
	}
	// All surviving nodes downstream must establish (give timers room).
	var alive []*Node
	for id, n := range h.nodes {
		if !h.net.Down(id) {
			alive = append(alive, n)
		}
	}
	awaitFlows(simnet.Wall, 10*time.Second, h.graph, alive...)
	if err := h.sender.Send([]byte("survives churn")); err != nil {
		t.Fatal(err)
	}
	got := h.waitMsg(t, 10*time.Second)
	if !bytes.Equal(got, []byte("survives churn")) {
		t.Fatal("corrupted under failure")
	}
	h.checkBooks(t)
}

// Mid-transfer failures in *different* stages: network-coding regeneration
// (§4.4.1) keeps the stream alive where end-to-end redundancy would die.
func TestDataSurvivesMidTransferFailuresWithRecoding(t *testing.T) {
	h := newHarness(t, 5, 2, 3, 13, true)
	defer h.close()
	h.establish(t)
	// Kill one relay in stage 2 and one in stage 4 (avoiding the dest).
	for _, st := range []int{1, 3} {
		for _, id := range h.graph.Stages[st] {
			if id != h.graph.Dest {
				h.net.Fail(id)
				break
			}
		}
	}
	msg := make([]byte, 4096)
	rand.New(rand.NewSource(13)).Read(msg)
	if err := h.sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := h.waitMsg(t, 15*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("corrupted under mid-transfer failures")
	}
	// Regeneration must actually have happened somewhere.
	var regen int64
	for _, n := range h.nodes {
		regen += n.Counters().Get("regenerated")
	}
	if regen == 0 {
		t.Fatal("no slices were regenerated")
	}
	h.checkBooks(t)
}

// Destination placed mid-graph still forwards: find a seed placing the dest
// in an interior stage and confirm both delivery and that the dest forwarded
// packets onward (cover traffic).
func TestDestinationMidGraphForwards(t *testing.T) {
	for seed := int64(1); seed < 60; seed++ {
		h := newHarness(t, 4, 2, 2, seed, true)
		if h.graph.DestStage == 4 || h.graph.DestStage == 1 {
			h.close()
			continue
		}
		h.establish(t)
		if err := h.sender.Send([]byte("mid graph")); err != nil {
			t.Fatal(err)
		}
		got := h.waitMsg(t, 5*time.Second)
		if !bytes.Equal(got, []byte("mid graph")) {
			t.Fatal("mid-graph delivery failed")
		}
		if h.dest.Counters().Get("packets_out") == 0 {
			t.Fatal("destination did not forward cover traffic")
		}
		h.checkBooks(t)
		h.close()
		return
	}
	t.Fatal("no seed placed the destination mid-graph")
}

func TestGarbageTrafficIgnored(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 17, true)
	defer h.close()
	h.establish(t)
	anyRelay := h.graph.Stages[0][0]
	// Garbage bytes and a garbage packet on an unknown flow.
	h.net.Send(1000, anyRelay, []byte("not a packet"))
	junk := &wire.Packet{Type: wire.MsgData, Flow: 0xdead, CoeffLen: 2,
		SlotLen: 8, Slots: [][]byte{make([]byte, 8)}}
	h.net.Send(1000, anyRelay, junk.Marshal())
	time.Sleep(20 * time.Millisecond)
	if err := h.sender.Send([]byte("still works")); err != nil {
		t.Fatal(err)
	}
	got := h.waitMsg(t, 5*time.Second)
	if !bytes.Equal(got, []byte("still works")) {
		t.Fatal("garbage disrupted the flow")
	}
	h.checkBooks(t)
}

func TestFlowGarbageCollection(t *testing.T) {
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(19)))
	defer net.Close()
	cfg := fastCfg(19)
	cfg.FlowTTL = 30 * time.Millisecond
	cfg.GCInterval = 10 * time.Millisecond
	n, err := New(42, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	net.Attach(1, func(wire.NodeID, []byte) {})
	junk := &wire.Packet{Type: wire.MsgData, Flow: 7, CoeffLen: 2,
		SlotLen: 8, Slots: [][]byte{make([]byte, 8)}}
	net.Send(1, 42, junk.Marshal())
	sawFlow := false
	ok := simnet.Eventually(2*time.Second, 2*time.Millisecond, func() bool {
		cnt := n.FlowTableSize()
		if cnt > 0 {
			sawFlow = true
		}
		return sawFlow && cnt == 0
	})
	if !ok {
		t.Fatal("stale flow not collected")
	}
	checkBooks(t, n)
}

func TestMaxFlowsBound(t *testing.T) {
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(23)))
	defer net.Close()
	cfg := fastCfg(23)
	cfg.MaxFlows = 5
	n, err := New(42, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	net.Attach(1, func(wire.NodeID, []byte) {})
	for i := 0; i < 20; i++ {
		junk := &wire.Packet{Type: wire.MsgData, Flow: wire.FlowID(i), CoeffLen: 2,
			SlotLen: 8, Slots: [][]byte{make([]byte, 8)}}
		net.Send(1, 42, junk.Marshal())
	}
	simnet.Eventually(time.Second, 2*time.Millisecond, func() bool {
		return n.FlowTableSize() == 5
	})
	if got := n.FlowTableSize(); got > 5 {
		t.Fatalf("flow table grew to %d", got)
	}
	checkBooks(t, n)
}

// The full stack over real TCP loopback sockets.
func TestEndToEndOverTCP(t *testing.T) {
	net := overlay.NewTCPNetwork()
	defer net.Close()
	const l, d, dp = 3, 2, 2
	relays := make([]wire.NodeID, l*dp)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	sources := []wire.NodeID{1000, 1001}
	for _, s := range sources {
		if err := net.Attach(s, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	var nodes []*Node
	for _, id := range relays {
		n, err := New(id, net, fastCfg(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		defer n.Close()
	}
	g, err := core.Build(core.Spec{
		L: l, D: d, DPrime: dp, Relays: relays, Dest: relays[2],
		Sources: sources, Scramble: true, Recode: true,
		Rng: rand.New(rand.NewSource(31)),
	})
	if err != nil {
		t.Fatal(err)
	}
	snd := source.New(net, g, source.Config{ChunkPayload: 512}, rand.New(rand.NewSource(32)))
	if err := snd.Establish(); err != nil {
		t.Fatal(err)
	}
	var dest *Node
	for _, n := range nodes {
		if n.ID() == g.Dest {
			dest = n
		}
	}
	msg := []byte("over real sockets")
	// Data is buffered by relays even if setup is still in flight; waiting
	// for the destination just keeps the assertion deadline honest.
	awaitFlows(simnet.Wall, 5*time.Second, g, dest)
	if err := snd.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-dest.Received():
		if !bytes.Equal(m.Data, msg) {
			t.Fatalf("got %q", m.Data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TCP delivery timed out")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	net := overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(37)))
	defer net.Close()
	n, err := New(1, net, fastCfg(37))
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
}
