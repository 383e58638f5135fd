package source

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"math/rand"

	"infoslicing/internal/core"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// repairStack is a full control-plane-enabled overlay on a virtual clock:
// liveness-tracking relays, spare nodes to splice in, endpoints that hear
// reports. Tests drive it by stepping virtual time, so the repair scenarios
// run in milliseconds of real time and are replayable from their seed.
type repairStack struct {
	clk    *simnet.VirtualClock
	net    *simnet.SimNet
	eps    *Endpoints
	snd    *Sender
	nodes  map[wire.NodeID]*relay.Node
	g      *core.Graph
	spares []wire.NodeID

	mu     sync.Mutex
	picked []wire.NodeID
}

func buildRepairStack(t *testing.T, l, d, dp, spares int, seed int64) *repairStack {
	t.Helper()
	simnet.ReportSeed(t)
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed, simnet.LinkProfile{Delay: 500 * time.Microsecond})
	relays := make([]wire.NodeID, l*dp)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	spareIDs := make([]wire.NodeID, spares)
	for i := range spareIDs {
		spareIDs[i] = wire.NodeID(500 + i)
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
	for _, id := range append(append([]wire.NodeID(nil), relays...), spareIDs...) {
		n, err := relay.New(id, net, relay.Config{
			SetupWait:       50 * time.Millisecond,
			RoundWait:       50 * time.Millisecond,
			Heartbeat:       15 * time.Millisecond,
			LivenessTimeout: 60 * time.Millisecond,
			Shards:          1,
			Rng:             rand.New(rand.NewSource(seed + int64(id))),
			Clock:           clk,
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
	snd := New(net, g, Config{ChunkPayload: 256, Clock: clk}, rand.New(rand.NewSource(seed+501)))
	st := &repairStack{clk: clk, net: net, eps: eps, snd: snd, nodes: nodes, g: g, spares: spareIDs}
	t.Cleanup(func() {
		snd.StopRepair()
		for _, n := range nodes {
			n.Close()
		}
		eps.Close()
		net.Close()
	})
	return st
}

// establish injects the setup wave and steps virtual time until every graph
// relay has decoded its block.
func (st *repairStack) establish(t *testing.T) {
	t.Helper()
	if err := st.snd.Establish(); err != nil {
		t.Fatal(err)
	}
	if !awaitGraph(st.clk, 10*time.Second, st.g, func(id wire.NodeID) *relay.Node { return st.nodes[id] }) {
		t.Fatal("graph never established in virtual time")
	}
}

// pick hands out unused spares and records what the repair loop chose.
func (st *repairStack) pick(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range st.spares {
		if exclude(id) {
			continue
		}
		used := false
		for _, p := range st.picked {
			if p == id {
				used = true
			}
		}
		if used {
			continue
		}
		st.picked = append(st.picked, id)
		return id, true
	}
	return 0, false
}

func (st *repairStack) repairCfg() RepairConfig {
	return RepairConfig{Heartbeat: 15 * time.Millisecond, Pick: st.pick}
}

// waitFor steps virtual time until cond holds (an exact-step wait, not a
// sleep-poll: the condition is re-checked at every quiesced instant).
func (st *repairStack) waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	if !st.clk.AwaitCond(timeout, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

func recvMsg(t *testing.T, st *repairStack, want []byte, timeout time.Duration) {
	t.Helper()
	var got []byte
	ok := st.clk.AwaitCond(timeout, func() bool {
		select {
		case m := <-st.nodes[st.g.Dest].Received():
			got = m.Data
			return true
		default:
			return false
		}
	})
	if !ok {
		t.Fatal("message not delivered")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("delivered message corrupted")
	}
}

// TestLiveRepairSurvivesStageCollapse is the end-to-end control-plane test:
// two relays of the same stage die one after the other. With d'=3, d=2 the
// first death is masked by redundancy; without repair the second would drop
// the stage below d and kill the session for good. The repair loop must
// detect each death, splice in a spare, and keep the stream decodable.
func TestLiveRepairSurvivesStageCollapse(t *testing.T) {
	st := buildRepairStack(t, 3, 2, 3, 4, 42)
	st.establish(t)
	// Choose two same-stage victims before repair can mutate the graph.
	var victims []wire.NodeID
	var stage int
	for l := 1; l <= st.g.L && victims == nil; l++ {
		var cand []wire.NodeID
		for _, x := range st.g.Stages[l-1] {
			if x != st.g.Dest {
				cand = append(cand, x)
			}
		}
		if len(cand) >= 2 {
			victims, stage = cand[:2], l
		}
	}
	if victims == nil {
		t.Fatal("no stage with two non-destination relays")
	}
	_ = stage
	if err := st.snd.StartRepair(st.eps, st.repairCfg()); err != nil {
		t.Fatal(err)
	}
	if err := st.snd.StartRepair(st.eps, st.repairCfg()); err != ErrRepairRunning {
		t.Fatalf("second StartRepair: %v, want ErrRepairRunning", err)
	}

	msg1 := bytes.Repeat([]byte("one"), 100)
	if err := st.snd.Send(msg1); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, st, msg1, 10*time.Second)

	st.net.Fail(victims[0])
	st.waitFor(t, 15*time.Second, "first splice", func() bool {
		return st.snd.Counters().Get("repair_splices") >= 1
	})
	// The replacement must come up as a real spliced-in relay.
	st.mu.Lock()
	first := st.picked[0]
	st.mu.Unlock()
	st.waitFor(t, 10*time.Second, "replacement establishment", func() bool {
		return st.nodes[first].Counters().Get("flows_established") >= 1
	})

	msg2 := bytes.Repeat([]byte("two"), 100)
	if err := st.snd.Send(msg2); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, st, msg2, 10*time.Second)

	st.net.Fail(victims[1])
	st.waitFor(t, 15*time.Second, "second splice", func() bool {
		return st.snd.Counters().Get("repair_splices") >= 2
	})
	// Give the freshest replacement a beat to establish, then stream: with
	// both original victims dead this only decodes if the splices carried.
	st.clk.RunFor(150 * time.Millisecond)
	msg3 := bytes.Repeat([]byte("three"), 100)
	if err := st.snd.Send(msg3); err != nil {
		t.Fatal(err)
	}
	recvMsg(t, st, msg3, 10*time.Second)

	if stats := st.snd.Counters(); stats.Get("repair_reports") < 2 || stats.Get("repair_splices") < 2 {
		t.Fatalf("repair counters too low: %v", stats)
	}
	spliced := int64(0)
	for _, n := range st.nodes {
		spliced += n.Counters().Get("splices_applied")
	}
	if spliced == 0 {
		t.Fatal("no relay ever applied a splice patch")
	}
}

// TestRepairDetectionOnly: with Pick == nil the loop consumes and counts
// reports but never splices — the repair-off arm of the churn comparison.
func TestRepairDetectionOnly(t *testing.T) {
	st := buildRepairStack(t, 2, 2, 2, 0, 43)
	st.establish(t)
	if err := st.snd.StartRepair(st.eps, RepairConfig{Heartbeat: 15 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var victim wire.NodeID
	for _, x := range st.g.Stages[0] {
		if x != st.g.Dest {
			victim = x
		}
	}
	st.net.Fail(victim)
	st.waitFor(t, 15*time.Second, "report in detection-only mode", func() bool {
		return st.snd.Counters().Get("repair_reports") >= 1
	})
	if s := st.snd.Counters(); s.Get("repair_splices") != 0 {
		t.Fatalf("detection-only mode spliced: %v", s)
	}
}

// TestStopRepairIdempotent: stats survive the stop, double-stop is safe,
// and the loop can be restarted.
func TestStopRepairIdempotent(t *testing.T) {
	st := buildRepairStack(t, 2, 2, 2, 1, 44)
	if err := st.snd.StartRepair(st.eps, st.repairCfg()); err != nil {
		t.Fatal(err)
	}
	st.snd.StopRepair()
	st.snd.StopRepair()
	_ = st.snd.Counters()
	if err := st.snd.StartRepair(st.eps, st.repairCfg()); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	st.snd.StopRepair()
}

// TestFlowsRepairIndependently: two flows from one process over one shared
// transport, each with its own sender, endpoints and repair loop. A
// relay death in flow A must be spliced by A's loop while flow B streams
// undisturbed — no cross-flow blocking, no cross-flow splices.
func TestFlowsRepairIndependently(t *testing.T) {
	const (
		l, d, dp = 2, 2, 3
		seed     = int64(77)
	)
	simnet.ReportSeed(t)
	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed, simnet.LinkProfile{Delay: 500 * time.Microsecond})

	type flow struct {
		snd    *Sender
		eps    *Endpoints
		g      *core.Graph
		dest   *relay.Node
		spares []wire.NodeID
	}
	var nodes []*relay.Node
	mkRelay := func(id wire.NodeID) *relay.Node {
		n, err := relay.New(id, net, relay.Config{
			SetupWait:       50 * time.Millisecond,
			RoundWait:       50 * time.Millisecond,
			Heartbeat:       15 * time.Millisecond,
			LivenessTimeout: 60 * time.Millisecond,
			Shards:          1,
			Rng:             rand.New(rand.NewSource(seed + int64(id))),
			Clock:           clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		return n
	}
	flows := make([]*flow, 2)
	for f := range flows {
		base := wire.NodeID(1 + f*100)
		relays := make([]wire.NodeID, l*dp)
		for i := range relays {
			relays[i] = base + wire.NodeID(i)
			mkRelay(relays[i])
		}
		spares := []wire.NodeID{base + 50, base + 51}
		for _, id := range spares {
			mkRelay(id)
		}
		srcIDs := make([]wire.NodeID, dp)
		for i := range srcIDs {
			srcIDs[i] = wire.NodeID(9000 + f*16 + i)
		}
		eps, err := AttachEndpoints(net, srcIDs)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Build(core.Spec{
			L: l, D: d, DPrime: dp,
			Relays: relays, Dest: relays[len(relays)-1], Sources: srcIDs,
			Recode: true, Scramble: true,
			Rng: rand.New(rand.NewSource(seed + 100 + int64(f))),
		})
		if err != nil {
			t.Fatal(err)
		}
		snd := New(net, g, Config{ChunkPayload: 256, Clock: clk}, rand.New(rand.NewSource(seed+1+int64(f))))
		flows[f] = &flow{snd: snd, eps: eps, g: g, spares: spares}
		for _, n := range nodes {
			if n.ID() == g.Dest {
				flows[f].dest = n
			}
		}
	}
	t.Cleanup(func() {
		for _, fl := range flows {
			fl.snd.StopRepair()
			fl.eps.Close()
		}
		for _, n := range nodes {
			n.Close()
		}
		net.Close()
	})
	for _, fl := range flows {
		fl := fl
		if err := fl.snd.Establish(); err != nil {
			t.Fatal(err)
		}
		if !awaitGraph(clk, 10*time.Second, fl.g, func(id wire.NodeID) *relay.Node { return nodeByID(nodes, id) }) {
			t.Fatal("flow never established")
		}
		pick := func(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
			for _, id := range fl.spares {
				if !exclude(id) {
					return id, true
				}
			}
			return 0, false
		}
		if err := fl.snd.StartRepair(fl.eps, RepairConfig{
			Heartbeat: 15 * time.Millisecond, Pick: pick,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill a non-destination relay of flow 0 only.
	var victim wire.NodeID
	for _, x := range flows[0].g.Stages[0] {
		if x != flows[0].g.Dest {
			victim = x
		}
	}
	net.Fail(victim)

	// While flow 0 repairs, flow 1 must stream promptly.
	for i := 0; i < 5; i++ {
		msg := bytes.Repeat([]byte{byte(i + 1)}, 64)
		if err := flows[1].snd.Send(msg); err != nil {
			t.Fatal(err)
		}
		var got []byte
		ok := clk.AwaitCond(5*time.Second, func() bool {
			select {
			case m := <-flows[1].dest.Received():
				got = m.Data
				return true
			default:
				return false
			}
		})
		if !ok {
			t.Fatal("flow 1 starved while flow 0 repaired")
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("flow 1 message %d corrupted", i)
		}
	}
	if !clk.AwaitCond(15*time.Second, func() bool {
		return flows[0].snd.Counters().Get("repair_splices") >= 1
	}) {
		t.Fatal("flow 0 never spliced")
	}
	// Flow 0 streams again post-repair.
	clk.RunFor(100 * time.Millisecond)
	msg := bytes.Repeat([]byte("healed"), 40)
	if err := flows[0].snd.Send(msg); err != nil {
		t.Fatal(err)
	}
	var got []byte
	ok := clk.AwaitCond(10*time.Second, func() bool {
		select {
		case m := <-flows[0].dest.Received():
			got = m.Data
			return true
		default:
			return false
		}
	})
	if !ok {
		t.Fatal("flow 0 never recovered")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("flow 0 corrupted after repair")
	}
	if s := flows[1].snd.Counters(); s.Get("repair_splices") != 0 {
		t.Fatalf("flow 1 spliced against an intact graph: %v", s)
	}
}

// awaitGraph waits, at most max on clk, until every relay of g has
// established its flow; node finds a relay by id.
func awaitGraph(clk simnet.Clock, max time.Duration, g *core.Graph, node func(wire.NodeID) *relay.Node) bool {
	nodes, flows := make([]*relay.Node, len(g.Relays)), make([]wire.FlowID, len(g.Relays))
	for i, id := range g.Relays {
		nodes[i], flows[i] = node(id), g.Flows[id]
	}
	return relay.AwaitEstablished(clk, max, nodes, flows)
}

func nodeByID(nodes []*relay.Node, id wire.NodeID) *relay.Node {
	for _, n := range nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// --- Establish timeout/backoff (satellite) ---------------------------------
//
// These three stay on the wall clock on purpose: EstablishAndWait is the
// blocking, caller-facing API, and its deadline behavior under a real clock
// is exactly what they pin.

// TestEstablishTimesOutWhenStage1Down: with no redundancy (d'=d), a dead
// stage-1 relay makes establishment impossible; EstablishAndWait must give
// up at the deadline, not hang and not spin.
func TestEstablishTimesOutWhenStage1Down(t *testing.T) {
	net, eps, snd, _, g := buildStack(t, 2, 2, 2, 21)
	net.Fail(g.Stage1()[0])
	start := time.Now()
	err := snd.EstablishAndWait(eps, 150*time.Millisecond)
	el := time.Since(start)
	if err != ErrAckTimeout {
		t.Fatalf("want ErrAckTimeout, got %v", err)
	}
	if el < 120*time.Millisecond {
		t.Fatalf("gave up after %v, before the deadline", el)
	}
	if el > 3*time.Second {
		t.Fatalf("timeout overshot: %v", el)
	}
}

// TestEstablishBackoffRecoversOnRevive: the relay comes back mid-wait; a
// retransmitted setup wave must establish the graph without caller-side
// retry logic.
func TestEstablishBackoffRecoversOnRevive(t *testing.T) {
	net, eps, snd, _, g := buildStack(t, 2, 2, 2, 22)
	down := g.Stage1()[0]
	net.Fail(down)
	go func() {
		time.Sleep(100 * time.Millisecond)
		net.Revive(down)
	}()
	if err := snd.EstablishAndWait(eps, 15*time.Second); err != nil {
		t.Fatalf("establishment never recovered: %v", err)
	}
}

// TestEstablishToleratesStage1FailureWithRedundancy: with d' > d the wave
// survives a dead stage-1 relay outright — every downstream node still
// receives at least d slices of its block.
func TestEstablishToleratesStage1FailureWithRedundancy(t *testing.T) {
	net, eps, snd, _, g := buildStack(t, 3, 2, 3, 23)
	net.Fail(g.Stage1()[0])
	if err := snd.EstablishAndWait(eps, 10*time.Second); err != nil {
		t.Fatalf("redundant establishment failed: %v", err)
	}
}
