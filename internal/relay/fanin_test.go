package relay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// An ack or a ParentDown report carries its sender and the sender's own
// flow-id, and moves exactly the one flow that stamps that flow-id on
// packets to that child — not every flow that happens to share the child.

// sharedChildFlows installs count established flows that all list child among
// their children, flow i under child-flow faninChildFlow(i) and with the
// single parent faninParent(i).
func sharedChildFlows(n *Node, count int, child wire.NodeID) []*flowState {
	out := make([]*flowState, count)
	for i := range out {
		out[i] = injectFlow(n, faninFlow(i), &wire.PerNodeInfo{
			Children:   []wire.NodeID{child},
			ChildFlows: []wire.FlowID{faninChildFlow(i)},
			Key:        testKey(byte(i)),
			DataMap:    []wire.DataForward{{Parent: faninParent(i), Child: 0}},
		})
	}
	return out
}

func faninFlow(i int) wire.FlowID      { return wire.FlowID(0xa000 + uint64(i)*7919) }
func faninChildFlow(i int) wire.FlowID { return wire.FlowID(0xc000 + uint64(i)*104729) }
func faninParent(i int) wire.NodeID    { return wire.NodeID(5000 + i) }

func ackFrame(flow wire.FlowID) []byte {
	return wire.AppendPacketHeader(nil, wire.MsgAck, flow, 0, 0, 0, 0)
}

func TestAckMovesExactlyOneFlow(t *testing.T) {
	const child = wire.NodeID(77)
	tr := &rawTransport{}
	n, err := New(1, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	fl := sharedChildFlows(n, 2, child)
	sh := n.shards[0]

	n.process(sh, child, ackFrame(faninChildFlow(0)))
	acks := tr.packetsOfType(wire.MsgAck)
	if len(acks) != 1 || acks[0].to != faninParent(0) ||
		wire.FlowID(binary.BigEndian.Uint64(acks[0].data[1:])) != faninFlow(0) {
		t.Fatalf("ack for flow A sent %d upstream ack(s) %+v, want one to A's parent stamped with A's flow-id", len(acks), acks)
	}
	if !fl[0].ackSent || fl[1].ackSent {
		t.Fatalf("ackSent A=%v B=%v after an ack for A only", fl[0].ackSent, fl[1].ackSent)
	}

	// A listed child, but a flow-id nobody stamps on packets to it: nothing
	// moves, whether it acks or reports.
	n.process(sh, child, ackFrame(0xdead))
	n.process(sh, child, wire.AppendParentDown(nil, 0xdead, 1, []byte("sealed")))
	// The right flow-id from the wrong sender is no match either.
	n.process(sh, child+1, ackFrame(faninChildFlow(1)))
	if got := len(tr.sends); got != 1 || fl[1].ackSent {
		t.Fatalf("unknown (child, flow-id) pairs caused %d extra send(s), B acked=%v", got-1, fl[1].ackSent)
	}
}

func TestParentDownForwardedOncePerReport(t *testing.T) {
	const (
		child  = wire.NodeID(77)
		others = 50
	)
	tr := &rawTransport{}
	n, err := New(1, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sharedChildFlows(n, 1+others, child)

	n.process(n.shards[0], child, wire.AppendParentDown(nil, faninChildFlow(0), 42, []byte("sealed")))
	if got := n.Counters().Get("parent_down_forwarded"); got != 1 {
		t.Fatalf("one report for one flow was forwarded %d times with %d other flows sharing the child", got, others)
	}
	fwd := tr.packetsOfType(wire.MsgParentDown)
	if len(fwd) != 1 || fwd[0].to != faninParent(0) ||
		wire.FlowID(binary.BigEndian.Uint64(fwd[0].data[1:])) != faninFlow(0) {
		t.Fatalf("report went out as %+v, want once to flow A's parent under A's flow-id", fwd)
	}
}

func TestSpliceSwapsChildIndexKey(t *testing.T) {
	const (
		flow             = wire.FlowID(0x5711)
		parent           = wire.NodeID(31)
		oldChild, newCh  = wire.NodeID(41), wire.NodeID(42)
		oldFlow, newFlow = wire.FlowID(0xc41), wire.FlowID(0xc42)
	)
	tr := &rawTransport{}
	n, err := New(1, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	key := testKey(0x77)
	info := func(child wire.NodeID, childFlow wire.FlowID) *wire.PerNodeInfo {
		return &wire.PerNodeInfo{
			Children: []wire.NodeID{child}, ChildFlows: []wire.FlowID{childFlow},
			Key: key, DataMap: []wire.DataForward{{Parent: parent, Child: 0}},
		}
	}
	fs := injectFlow(n, flow, info(oldChild, oldFlow))
	sh := n.shards[0]
	sealed, err := key.Seal(rand.New(rand.NewSource(4)), spliceBody(1, info(newCh, newFlow)))
	if err != nil {
		t.Fatal(err)
	}
	n.process(sh, 999, wire.AppendSplice(nil, flow, sealed))
	if n.Counters().Get("splices_applied") != 1 {
		t.Fatal("splice not applied")
	}
	if _, held := sh.byChild[childKey{uint64(oldChild), uint64(oldFlow)}]; held || len(sh.byChild) != 1 {
		t.Fatalf("index after the splice: %v, want only the replacement's key", sh.byChild)
	}
	if n.childMask(oldChild) != 0 || n.childMask(newCh) == 0 {
		t.Fatal("directory still routes the replaced child, or not yet the replacement")
	}
	n.onPacket(oldChild, ackFrame(oldFlow)) // dies at the directory
	n.process(sh, oldChild, ackFrame(oldFlow))
	n.process(sh, newCh, ackFrame(oldFlow)) // the replacement was given its own flow-id
	if fs.ackSent || len(tr.sends) != 0 {
		t.Fatal("an ack under the replaced child's key still moved the flow")
	}
	n.process(sh, newCh, ackFrame(newFlow))
	// Upstream is the declared parent alone, not the splice's sender.
	if acks := tr.packetsOfType(wire.MsgAck); !fs.ackSent || len(acks) != 1 || acks[0].to != parent {
		t.Fatalf("the replacement's ack, under the patched child-flow, sent %+v", acks)
	}
}

// TestChildIndexKeyReleasedOnlyByHolder: a flow whose routing block claims a
// (child, child-flow) pair another flow already holds neither takes the key
// nor, by leaving, unroutes the holder.
func TestChildIndexKeyReleasedOnlyByHolder(t *testing.T) {
	const child = wire.NodeID(77)
	tr := &rawTransport{}
	n, err := New(1, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	victim := sharedChildFlows(n, 1, child)[0]
	squatter := injectFlow(n, 0xbad, &wire.PerNodeInfo{
		Children: []wire.NodeID{child}, ChildFlows: []wire.FlowID{faninChildFlow(0)}, Key: testKey(9),
	})
	sh := n.shards[0]
	sh.do(func() { n.removeFlow(sh, squatter, true) })
	n.process(sh, child, ackFrame(faninChildFlow(0)))
	if !victim.ackSent || squatter.ackSent {
		t.Fatalf("ackSent holder=%v squatter=%v after the squatter came and went", victim.ackSent, squatter.ackSent)
	}
}

// TestChildDirectoryUnderChurn races the directory's one protocol: each shard
// worker sets and clears only its own bit in bucket masks it shares with the
// others, while transport goroutines read them without a lock. Churners on all
// eight shards establish and evict flows whose routes share three children, so
// the same buckets' bits flip on every shard at once; a transport goroutine acks
// each flow while it is resident, and the ack must reach it (a bit lost to a
// neighbour's update drops it at the directory). Once the churn stops, no bit
// outlives its shard's count and the books balance.
func TestChildDirectoryUnderChurn(t *testing.T) {
	const churners, rounds = 4, 150
	children := [...]wire.NodeID{41, 42, 43}
	n, err := New(1, &rawTransport{}, Config{Shards: 8, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	type childAck struct {
		child wire.NodeID
		flow  wire.FlowID
	}
	acks := make(chan childAck)
	var transports, churn sync.WaitGroup
	for range 2 {
		transports.Add(1)
		go func() {
			defer transports.Done()
			for a := range acks {
				n.onPacket(a.child, ackFrame(a.flow))
			}
		}()
	}
	var mu sync.Mutex
	used := map[int]bool{}
	for c := range churners {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for r := range rounds {
				i := c*rounds + r
				f := wire.FlowID(0x10000 + i)
				kids := []wire.NodeID{children[i%3], children[(i+1)%3]}
				fs := injectFlow(n, f, &wire.PerNodeInfo{
					Children: kids, ChildFlows: []wire.FlowID{faninChildFlow(2 * i), faninChildFlow(2*i + 1)},
					Key: testKey(byte(i)), DataMap: []wire.DataForward{{Parent: faninParent(i), Child: 0}},
				})
				sh := n.shardFor(f)
				acks <- childAck{kids[i%2], faninChildFlow(2*i + i%2)}
				if !simnet.Eventually(5*time.Second, 100*time.Microsecond, func() (acked bool) {
					sh.do(func() { acked = fs.ackSent })
					return acked
				}) {
					t.Errorf("flow %#x, resident on shard %d, never got its child's ack", f, sh.idx)
					return
				}
				if r < rounds-1 { // each churner's last flow stays resident
					sh.do(func() { n.removeFlow(sh, fs, true) })
				}
				mu.Lock()
				used[sh.idx] = true
				mu.Unlock()
			}
		}()
	}
	churn.Wait()
	close(acks)
	transports.Wait()

	if len(used) != len(n.shards) {
		t.Errorf("the churn reached %d of %d shards", len(used), len(n.shards))
	}
	for _, sh := range n.shards {
		stale, counted := 0, 0
		sh.do(func() {
			for b, c := range sh.dirCount {
				if n.dir[b].Load()>>sh.idx&1 == 1 && c == 0 {
					stale++
				}
				counted += int(c)
			}
		})
		if stale != 0 {
			t.Errorf("shard %d: %d buckets keep its mask bit at a zero count", sh.idx, stale)
		}
		if fan := 2 * len(sh.flows); counted != fan {
			t.Errorf("shard %d counts %d children for %d resident flows", sh.idx, counted, len(sh.flows))
		}
	}
	// The other shards a shared child's ack fans out to miss it in byChild,
	// counted in unmatched; the directory and the queues dropped none.
	if c := n.Counters(); c.Get("filter_misses") != 0 || c.Get("queue_drops") != 0 {
		t.Errorf("acks for resident flows were dropped: filter_misses=%d queue_drops=%d",
			c.Get("filter_misses"), c.Get("queue_drops"))
	}
	checkBooks(t, n)
}

// wavePartition is a ChanNetwork that can lose chosen flows' set-up packets.
type wavePartition struct {
	*overlay.ChanNetwork
	mu   sync.Mutex
	drop map[wire.FlowID]bool
}

func (w *wavePartition) Send(from, to wire.NodeID, data []byte) error {
	if len(data) >= wire.HeaderLen && wire.MsgType(data[0]) == wire.MsgSetup {
		w.mu.Lock()
		lost := w.drop[wire.FlowID(binary.BigEndian.Uint64(data[1:]))]
		w.mu.Unlock()
		if lost {
			return nil
		}
	}
	return w.ChanNetwork.Send(from, to, data)
}

// SendOwned loses the same packets from a relay's egress batches.
func (w *wavePartition) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	defer release()
	for _, b := range bufs {
		w.Send(from, to, b)
	}
	return nil
}

// TestAckDoesNotEstablishNeighbourFlow is the end-to-end shape of the bug:
// two graphs over the same relays share a stage-1 relay and its children.
// B's wave is lost between stage 1 and stage 2, so B's destination never
// hears of it — yet A's ack, passing through the shared stage-1 relays, used
// to complete B there and report B established to its source.
func TestAckDoesNotEstablishNeighbourFlow(t *testing.T) {
	const l, d, dp = 2, 2, 2
	net := &wavePartition{
		ChanNetwork: overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(1))),
		drop:        map[wire.FlowID]bool{},
	}
	defer net.Close()
	relays := []wire.NodeID{1, 2, 3, 4}
	for _, id := range relays {
		n, err := New(id, net, fastCfg(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
	}
	// Same relays, same destination: find two seeds that put it in the last
	// stage and agree on the stage-1 set (Build shuffles relays into stages).
	srcA, srcB := []wire.NodeID{1000, 1001}, []wire.NodeID{2000, 2001}
	var ga, gb *core.Graph
	for seed := int64(1); gb == nil; seed++ {
		srcs := srcA
		if ga != nil {
			srcs = srcB
		}
		g, err := core.Build(core.Spec{
			L: l, D: d, DPrime: dp, Relays: relays, Dest: relays[0], Sources: srcs,
			Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(seed)),
		})
		switch {
		case err != nil:
			t.Fatal(err)
		case ga == nil && g.StageOf(g.Dest) == l:
			ga = g
		case ga != nil && fmt.Sprint(g.Stages) == fmt.Sprint(ga.Stages):
			gb = g
		}
	}
	for _, id := range gb.Stages[1] {
		net.drop[gb.Flows[id]] = true
	}
	epA, err := source.AttachEndpoints(net, srcA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := source.AttachEndpoints(net, srcB)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	sndA := source.New(net, ga, source.Config{}, rand.New(rand.NewSource(11)))
	sndB := source.New(net, gb, source.Config{}, rand.New(rand.NewSource(12)))

	// B first, so its stage-1 flows are established and waiting when A's
	// ack comes through.
	if err := sndB.Establish(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := sndA.Establish(); err != nil {
		t.Fatal(err)
	}
	if err := sndA.WaitEstablished(epA, 5*time.Second); err != nil {
		t.Fatalf("flow A, whose wave was not touched: %v", err)
	}
	if err := sndB.WaitEstablished(epB, 200*time.Millisecond); !errors.Is(err, source.ErrAckTimeout) {
		t.Fatalf("flow B never reached its destination, yet WaitEstablished returned %v", err)
	}
}
