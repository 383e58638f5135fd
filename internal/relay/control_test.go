package relay

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// rawTransport records every send verbatim for control-plane assertions.
type rawTransport struct {
	overlay.TransportBase
	mu    sync.Mutex
	sends []rawSend
}

type rawSend struct {
	to   wire.NodeID
	data []byte
}

func (t *rawTransport) Attach(wire.NodeID, overlay.Handler) error { return nil }
func (t *rawTransport) Detach(wire.NodeID)                        {}
func (t *rawTransport) Send(_, to wire.NodeID, data []byte) error {
	t.mu.Lock()
	t.sends = append(t.sends, rawSend{to, append([]byte(nil), data...)})
	t.mu.Unlock()
	return nil
}

func (t *rawTransport) packetsOfType(typ wire.MsgType) []rawSend {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []rawSend
	for _, s := range t.sends {
		if len(s.data) > 0 && wire.MsgType(s.data[0]) == typ {
			out = append(out, rawSend{s.to, s.data})
		}
	}
	return out
}

func testKey(b byte) slcrypto.SymmetricKey {
	var k slcrypto.SymmetricKey
	for i := range k {
		k[i] = b
	}
	return k
}

// spliceBody frames a patch plaintext as the source does: seq ‖ info.
func spliceBody(seq uint64, pi *wire.PerNodeInfo) []byte {
	return append(binary.BigEndian.AppendUint64(nil, seq), pi.Marshal()...)
}

// injectFlow installs an established flow directly (the unit-test analogue
// of a completed setup phase).
func injectFlow(n *Node, flow wire.FlowID, pi *wire.PerNodeInfo) *flowState {
	return injectFlowAt(n, flow, pi, time.Now())
}

// injectFlowAt is injectFlow with an explicit "now" — virtual-clock tests
// pass their clock's time so liveness and GC stamps live on that timeline.
func injectFlowAt(n *Node, flow wire.FlowID, pi *wire.PerNodeInfo, now time.Time) *flowState {
	fs := &flowState{flow: flow, lastActive: n.stamp(now)}
	fs.setRoute(pi)
	fs.route.d = 2
	fs.declareParents(pi, fs.lastActive)
	// Full install: map, LRU link, child index and directory — exactly what creation + establishment on the packet path
	// produce.
	sh := n.shardFor(flow)
	sh.do(func() {
		sh.flows[flow] = fs
		sh.lruPush(fs)
		n.dirAdd(sh, fs)
	})
	n.flowCount.Add(1)
	return fs
}

// TestLivenessDetectionReportsQuietParent: with the control plane on, a
// parent that stops talking is reported — a sealed ParentDown naming it goes
// to exactly the flow's two declared parents, once a liveness timeout while
// the silence lasts, and never names the parent that keeps heartbeating — and
// heartbeats flow to the child throughout. It runs on a virtual clock, so no
// scheduling stall can silence the live parent.
func TestLivenessDetectionReportsQuietParent(t *testing.T) {
	const (
		flow = wire.FlowID(0xf00d)
		p1   = wire.NodeID(101)
		p2   = wire.NodeID(102)
		c1   = wire.NodeID(201)
		span = 200 * time.Millisecond
	)
	s, n := virtualNode(t, 1, Config{Heartbeat: 10 * time.Millisecond})
	got := map[wire.NodeID]map[wire.MsgType][][]byte{} // what each neighbour heard, by type
	for _, id := range []wire.NodeID{p1, p2, c1} {
		got[id] = map[wire.MsgType][][]byte{}
		if err := s.Net.Attach(id, func(_ wire.NodeID, b []byte) {
			got[id][wire.MsgType(b[0])] = append(got[id][wire.MsgType(b[0])], append([]byte(nil), b...))
		}); err != nil {
			t.Fatal(err)
		}
	}
	key := testKey(0x5a)
	injectFlowAt(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{c1},
		ChildFlows: []wire.FlowID{0xc001},
		Key:        key,
		DataMap: []wire.DataForward{
			{Parent: p1, Child: 0}, {Parent: p2, Child: 0},
		},
	}, s.Clk.Now())
	// p1 heartbeats every 5 ms; p2 says nothing.
	for at := 5 * time.Millisecond; at <= span; at += 5 * time.Millisecond {
		s.At(at, func() { s.Net.Send(p1, 1, wire.AppendHeartbeat(nil, flow)) })
	}
	s.Run(span)

	c := n.Counters()
	sent := c.Get("parent_down_sent")
	// p2 was last heard at 0; the sweeps at 50, 90, 130 and 170 ms find it
	// silent past the 40 ms timeout, one timeout after the last report.
	if sent != 4 {
		t.Fatalf("parent_down_sent = %d over %v, want 4", sent, span)
	}
	if hb := c.Get("heartbeats_in"); hb != int64(span/(5*time.Millisecond)) {
		t.Fatalf("heartbeats_in = %d, want p1's %d", hb, span/(5*time.Millisecond))
	}
	if out := c.Get("heartbeats_out"); out == 0 || int64(len(got[c1][wire.MsgHeartbeat])) != out || c.Get("packets_out") != out+2*sent {
		t.Fatalf("%d heartbeats to the child, heartbeats_out %d, packets_out %d: want every heartbeat at the child and nothing sent but heartbeats and a report to each parent",
			len(got[c1][wire.MsgHeartbeat]), out, c.Get("packets_out"))
	}
	if len(got[c1][wire.MsgParentDown]) != 0 {
		t.Fatal("a report went down to the child")
	}
	for _, p := range []wire.NodeID{p1, p2} {
		reports := got[p][wire.MsgParentDown]
		if int64(len(reports)) != sent {
			t.Fatalf("parent %d heard %d reports of %d", p, len(reports), sent)
		}
		for _, r := range reports {
			pkt, err := wire.UnmarshalPacket(r)
			if err != nil {
				t.Fatal(err)
			}
			if pkt.Flow != flow {
				t.Fatalf("report stamped %x, want own flow %x", pkt.Flow, flow)
			}
			_, sealed, err := wire.ParseParentDown(pkt)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := key.Open(sealed)
			if err != nil {
				t.Fatalf("report not sealed under the node key: %v", err)
			}
			if dead, err := wire.UnmarshalDownReport(plain); err != nil || dead != p2 {
				t.Fatalf("report names %d (%v), want the quiet parent %d; never the live %d", dead, err, p2, p1)
			}
		}
	}
}

// TestParentDownForwardedUpstream: a report arriving from a child is
// re-stamped with this node's own flow-id and flooded to its parents, the
// sealed body untouched; a duplicate nonce is dropped.
func TestParentDownForwardedUpstream(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(2, tr, Config{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const (
		flow  = wire.FlowID(0xaa55)
		par   = wire.NodeID(11)
		child = wire.NodeID(21)
	)
	injectFlow(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{child},
		ChildFlows: []wire.FlowID{0xbb66},
		Key:        testKey(1),
		DataMap:    []wire.DataForward{{Parent: par, Child: 0}},
	})

	sealed := []byte("opaque-sealed-body-the-relay-cannot-read")
	report := wire.AppendParentDown(nil, 0xbb66, 777, sealed)
	n.onPacket(child, report)

	var fwd []rawSend
	simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		fwd = tr.packetsOfType(wire.MsgParentDown)
		return len(fwd) > 0
	})
	if len(fwd) != 1 || fwd[0].to != par {
		t.Fatalf("forwarded %d report(s) %+v, want 1 to parent %d", len(fwd), fwd, par)
	}
	pkt, err := wire.UnmarshalPacket(fwd[0].data)
	if err != nil {
		t.Fatal(err)
	}
	nonce, body, err := wire.ParseParentDown(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Flow != flow || nonce != 777 || string(body) != string(sealed) {
		t.Fatalf("re-stamp corrupted the report: flow %x nonce %d", pkt.Flow, nonce)
	}

	// Duplicate nonce: dropped.
	n.onPacket(child, report)
	// A fresh nonce from the same child: forwarded.
	n.onPacket(child, wire.AppendParentDown(nil, 0xbb66, 778, sealed))
	simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		return len(tr.packetsOfType(wire.MsgParentDown)) >= 2
	})
	if got := len(tr.packetsOfType(wire.MsgParentDown)); got != 2 {
		t.Fatalf("after dup + fresh reports, %d forwards, want 2", got)
	}
	if got := n.Counters().Get("parent_down_forwarded"); got != 2 {
		t.Fatalf("parent_down_forwarded = %d, want 2", got)
	}
}

// TestForwardedReportLeavesFlowAtRest: the nonces that dedup the ParentDown
// flood live in the flow's resident record, so forwarding a report through a
// resting flow gives it no tail and it stays one record.
func TestForwardedReportLeavesFlowAtRest(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(2, tr, Config{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const flow, child = wire.FlowID(0xaa55), wire.NodeID(21)
	fs := injectFlow(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{child},
		ChildFlows: []wire.FlowID{0xbb66},
		Key:        testKey(1),
		DataMap:    []wire.DataForward{{Parent: 11, Child: 0}},
	})
	n.onPacket(child, wire.AppendParentDown(nil, 0xbb66, 777, []byte("sealed")))
	if !simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		return n.Counters().Get("parent_down_forwarded") == 1
	}) {
		t.Fatal("report not forwarded")
	}
	var atRest bool
	n.shardFor(flow).do(func() { atRest = fs.tail == nil })
	if !atRest {
		t.Fatal("forwarding a report gave the resting flow a tail")
	}
}

// TestReportDedupIsPerFlow: each flow dedups the ParentDown flood in its own
// window. A child flooding one shard with fresh nonces pushes out none of
// another flow's, so that flow's duplicate is still dropped, and its own
// flow still drops copies of its last six reports: the most one flow
// remembered between a report's first and last copy in
// TestRepairStressEveryFlowLosesRelays, whose flows each lose several relays.
func TestReportDedupIsPerFlow(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(2, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const (
		flooder, honest        = wire.NodeID(21), wire.NodeID(22)
		floodFlow, honestFlow  = wire.FlowID(0xbb66), wire.FlowID(0xcc77)
		flood                  = 600 // more fresh nonces than any one shard-wide window of 512
		honestNonce, lastNonce = uint64(900), uint64(901)
		spread                 = 6
	)
	for i, kid := range []struct {
		id   wire.NodeID
		flow wire.FlowID
	}{{flooder, floodFlow}, {honest, honestFlow}} {
		injectFlow(n, wire.FlowID(0xaa50+i), &wire.PerNodeInfo{
			Children:   []wire.NodeID{kid.id},
			ChildFlows: []wire.FlowID{kid.flow},
			Key:        testKey(byte(1 + i)),
			DataMap:    []wire.DataForward{{Parent: 11, Child: 0}},
		})
	}
	forwarded := func(want int64) {
		t.Helper()
		if !simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
			return n.Counters().Get("parent_down_forwarded") >= want
		}) {
			t.Fatalf("parent_down_forwarded never reached %d: %v", want, n.Counters())
		}
	}
	sealed := []byte("sealed")
	n.onPacket(honest, wire.AppendParentDown(nil, honestFlow, honestNonce, sealed))
	forwarded(1)
	for i := range uint64(flood) {
		n.onPacket(flooder, wire.AppendParentDown(nil, floodFlow, 1000+i, sealed))
	}
	forwarded(1 + flood)
	n.onPacket(honest, wire.AppendParentDown(nil, honestFlow, honestNonce, sealed))
	for i := range uint64(spread) {
		n.onPacket(flooder, wire.AppendParentDown(nil, floodFlow, 1000+flood-1-i, sealed))
	}
	// One shard takes its packets in order, so once this fresh report is
	// forwarded every duplicate before it has been judged.
	n.onPacket(honest, wire.AppendParentDown(nil, honestFlow, lastNonce, sealed))
	forwarded(2 + flood)
	if got := n.Counters().Get("parent_down_forwarded"); got != 2+flood {
		t.Fatalf("parent_down_forwarded = %d, want %d: a duplicate was re-flooded", got, 2+flood)
	}
	if drops := n.Counters().Get("queue_drops"); drops != 0 {
		t.Fatalf("queue_drops = %d, want 0", drops)
	}
}

// TestSpliceSwapsParentAtomically: an authenticated splice replaces the
// info block, grants the new parent a liveness grace, and drops the removed
// one's record; a splice sealed under the wrong key is rejected.
func TestSpliceSwapsParentAtomically(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(3, tr, Config{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	key := testKey(0x77)
	const (
		flow    = wire.FlowID(0x5711ce)
		oldPar  = wire.NodeID(31)
		newPar  = wire.NodeID(32)
		childID = wire.NodeID(41)
	)
	fs := injectFlow(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{childID},
		ChildFlows: []wire.FlowID{0xcafe},
		Key:        key,
		DataMap:    []wire.DataForward{{Parent: oldPar, Child: 0}},
	})
	sh := n.shardFor(flow)
	sh.do(func() {
		old := &fs.hops()[fs.hopIndex(oldPar)]
		old.miss, old.downAt = deadParentStreak, n.stamp(time.Now())
		old.flags |= hopReported
	})

	patch := &wire.PerNodeInfo{
		Children:   []wire.NodeID{childID},
		ChildFlows: []wire.FlowID{0xcafe},
		Key:        key,
		Spliced:    true,
		DataMap:    []wire.DataForward{{Parent: newPar, Child: 0}},
	}
	rng := rand.New(rand.NewSource(4))

	// Forged first: sealed under the wrong key, must be ignored.
	forged, err := testKey(0x78).Seal(rng, spliceBody(1, patch))
	if err != nil {
		t.Fatal(err)
	}
	n.onPacket(999, wire.AppendSplice(nil, flow, forged))

	genuine, err := key.Seal(rng, spliceBody(1, patch))
	if err != nil {
		t.Fatal(err)
	}
	n.onPacket(999, wire.AppendSplice(nil, flow, genuine))

	simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		return n.Counters().Get("splices_applied") > 0
	})
	if got := n.Counters().Get("splices_applied"); got != 1 {
		t.Fatalf("SplicesApplied = %d, want 1 (forged splice must not count)", got)
	}
	n.Close() // joins the worker: the flow is the test's to read
	if routeOf(fs).DataMap[0].Parent != newPar {
		t.Fatal("data-map not swapped")
	}
	if len(fs.hops()) != 1 || fs.hops()[0].id != newPar {
		t.Fatalf("parents not swapped, or the removed one's record survives: %+v", fs.hops())
	}
	if nw := fs.hops()[0]; nw.heardAt != fs.lastActive || nw.flags&hopReported != 0 || fs.deadParents() != 0 {
		t.Fatalf("new parent has no fresh liveness grace: %+v", nw)
	}
}

// TestSpliceOrderingNewestWins: patches from two consecutive repairs can
// arrive reordered; the one with the higher sequence number must stand no
// matter the arrival order, and duplicates must not re-apply.
func TestSpliceOrderingNewestWins(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(7, tr, Config{Rng: rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	key := testKey(0x21)
	const flow = wire.FlowID(0x0bde4)
	fs := injectFlow(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{91},
		ChildFlows: []wire.FlowID{0x91},
		Key:        key,
		DataMap:    []wire.DataForward{{Parent: 95, Child: 0}},
	})
	mkPatch := func(seq uint64, parent wire.NodeID) []byte {
		pi := &wire.PerNodeInfo{
			Children:   []wire.NodeID{91},
			ChildFlows: []wire.FlowID{0x91},
			Key:        key,
			Spliced:    true,
			DataMap:    []wire.DataForward{{Parent: parent, Child: 0}},
		}
		sealed, err := key.Seal(rand.New(rand.NewSource(int64(seq))), spliceBody(seq, pi))
		if err != nil {
			t.Fatal(err)
		}
		return wire.AppendSplice(nil, flow, sealed)
	}
	// Repair 2's patch (parent 97) overtakes repair 1's (parent 96).
	n.onPacket(999, mkPatch(2, 97))
	simnet.Eventually(5*time.Second, 2*time.Millisecond, func() bool {
		return n.Counters().Get("splices_applied") > 0
	})
	n.onPacket(999, mkPatch(1, 96)) // late: must be dropped
	n.onPacket(999, mkPatch(2, 97)) // duplicate: must be dropped
	time.Sleep(30 * time.Millisecond)
	if got := n.Counters().Get("splices_applied"); got != 1 {
		t.Fatalf("SplicesApplied = %d, want 1", got)
	}
	n.Close() // joins the worker: the flow is the test's to read
	if routeOf(fs).DataMap[0].Parent != 97 {
		t.Fatalf("stale patch won: parent = %d, want 97", routeOf(fs).DataMap[0].Parent)
	}
}

// TestSpliceIgnoredForUnknownOrUnestablishedFlow: control traffic never
// creates flow state, and a splice for a flow still in setup is dropped.
func TestSpliceIgnoredForUnknownOrUnestablishedFlow(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(4, tr, Config{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	sealed, err := testKey(9).Seal(rand.New(rand.NewSource(6)), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	n.onPacket(5, wire.AppendSplice(nil, 0x123, sealed))
	n.onPacket(5, wire.AppendHeartbeat(nil, 0x456))
	time.Sleep(25 * time.Millisecond)
	if got := n.FlowTableSize(); got != 0 {
		t.Fatalf("control traffic created %d flow(s)", got)
	}
}

// TestRelayMalformedControlTraffic storms a live relay with mutated
// control frames of every type; nothing may panic and no flow state may
// leak from pure control noise.
func TestRelayMalformedControlTraffic(t *testing.T) {
	tr := &rawTransport{}
	n, err := New(5, tr, Config{
		Heartbeat: 5 * time.Millisecond,
		Rng:       rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	key := testKey(0x33)
	const flow = wire.FlowID(0x600d)
	injectFlow(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{61},
		ChildFlows: []wire.FlowID{0x61},
		Key:        key,
		DataMap:    []wire.DataForward{{Parent: 51, Child: 0}},
	})

	rng := rand.New(rand.NewSource(8))
	sealed := make([]byte, 64)
	rng.Read(sealed)
	bases := [][]byte{
		wire.AppendHeartbeat(nil, flow),
		wire.AppendParentDown(nil, flow, rng.Uint64(), sealed),
		wire.AppendSplice(nil, flow, sealed),
		(&wire.Packet{Type: wire.MsgAck, Flow: flow}).Marshal(),
	}
	froms := []wire.NodeID{51, 61, 999}
	for i := 0; i < 4000; i++ {
		b := append([]byte(nil), bases[i%len(bases)]...)
		for m := 0; m < 1+rng.Intn(4); m++ {
			switch rng.Intn(3) {
			case 0:
				b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
			case 1:
				if len(b) > 1 {
					b = b[:1+rng.Intn(len(b)-1)]
				}
			case 2:
				b = append(b, byte(rng.Intn(256)))
			}
		}
		n.onPacket(froms[i%len(froms)], b)
	}
	time.Sleep(25 * time.Millisecond)
	if got := n.FlowTableSize(); got != 1 {
		t.Fatalf("noise changed the flow table: %d flows, want 1", got)
	}
	if got := n.Counters().Get("splices_applied"); got != 0 {
		t.Fatalf("mutated splice applied %d times", got)
	}
}

// BenchmarkSpliceApply measures the repair hot path on the relay: parse an
// incoming splice, authenticate it against the flow key, and swap the
// routing block. Gated in bench_baseline.json so the repair path cannot
// silently regress into an allocation storm.
func BenchmarkSpliceApply(b *testing.B) {
	tr := &rawTransport{}
	n, err := New(6, tr, Config{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()

	key := testKey(0x44)
	const flow = wire.FlowID(0xbe9c4)
	fs := injectFlow(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{71},
		ChildFlows: []wire.FlowID{0x71},
		Key:        key,
		DataMap:    []wire.DataForward{{Parent: 81, Child: 0}},
	})
	patch := &wire.PerNodeInfo{
		Children:   []wire.NodeID{71},
		ChildFlows: []wire.FlowID{0x71},
		Key:        key,
		Spliced:    true,
		DataMap:    []wire.DataForward{{Parent: 82, Child: 0}},
	}
	sealed, err := key.Seal(rand.New(rand.NewSource(10)), spliceBody(1, patch))
	if err != nil {
		b.Fatal(err)
	}
	frame := wire.AppendSplice(nil, flow, sealed)
	sh := n.shardFor(flow)

	b.ReportAllocs()
	b.ResetTimer()
	sh.do(func() {
		for i := 0; i < b.N; i++ {
			pkt, err := wire.UnmarshalPacket(frame)
			if err != nil {
				panic(err)
			}
			fs.spliceSeq = 0 // re-arm: the pre-sealed patch carries seq 1
			n.handleSplice(sh, fs, pkt)
		}
	})
	b.StopTimer()
	if routeOf(fs).DataMap[0].Parent != 82 {
		b.Fatal("splice not applied")
	}
}
