package relay

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Egress-slab leak detectors: every reference the relay's two-stage egress
// takes from its SlabPool must come back — after clean end-to-end delivery,
// after mid-flight node failures, after queue-full sheds, and after
// Node.Close — with n.egPool.Outstanding() as the gauge (DESIGN.md rule 9).
// While a node runs each shard keeps its open slab for the next burst, so
// the gauge settles at no more than one slab per shard; after Close it
// reads zero.

// outstandingAtMost waits until every relay's egress pool holds at most
// perShard slabs per shard. Transports may fire the release on a delivery
// goroutine, so poll briefly.
func outstandingAtMost(nodes map[wire.NodeID]*Node, perShard int) bool {
	return simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		for _, n := range nodes {
			if n.egPool.Outstanding() > int64(perShard*len(n.shards)) {
				return false
			}
		}
		return true
	})
}

// openSlabsOnly: traffic has stopped and only the shards' open slabs remain.
func openSlabsOnly(nodes map[wire.NodeID]*Node) bool { return outstandingAtMost(nodes, 1) }

// outstandingZero: every reference is back (after Close).
func outstandingZero(nodes map[wire.NodeID]*Node) bool { return outstandingAtMost(nodes, 0) }

func TestEgressSlabsReleasedEndToEnd(t *testing.T) {
	h := newHarness(t, 3, 2, 3, 21, true)
	h.establish(t)
	msg := make([]byte, 4096)
	rand.New(rand.NewSource(21)).Read(msg)
	if err := h.sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 10*time.Second); !bytes.Equal(got, msg) {
		t.Fatal("message corrupted")
	}
	if !openSlabsOnly(h.nodes) {
		t.Fatal("egress slabs leaked after delivery")
	}
	h.close()
	if !outstandingZero(h.nodes) {
		t.Fatal("egress slabs leaked after Close")
	}
	h.checkBooks(t)
}

// Mid-flight failures exercise the ugly release paths: sends toward downed
// nodes (ChanNetwork Fail epochs invalidate in-flight hand-offs) and
// regeneration-heavy rounds. No slab reference may outlive any of it.
func TestEgressSlabsReleasedUnderMidFlightFailures(t *testing.T) {
	h := newHarness(t, 5, 2, 3, 27, true)
	h.establish(t)
	for _, st := range []int{1, 3} {
		for _, id := range h.graph.Stages[st] {
			if id != h.graph.Dest {
				h.net.Fail(id)
				break
			}
		}
	}
	msg := make([]byte, 4096)
	rand.New(rand.NewSource(27)).Read(msg)
	if err := h.sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 15*time.Second); !bytes.Equal(got, msg) {
		t.Fatal("message corrupted under failures")
	}
	if !openSlabsOnly(h.nodes) {
		t.Fatal("egress slabs leaked under mid-flight failures")
	}
	h.close()
	if !outstandingZero(h.nodes) {
		t.Fatal("egress slabs leaked after Close under failures")
	}
	h.checkBooks(t)
}

// ownedCountingTransport counts sends through the owned path, consuming the
// release per the OwnedSender contract.
type ownedCountingTransport struct {
	countingTransport
	ownedBatches int64
}

func (t *ownedCountingTransport) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	t.ownedBatches++
	for _, b := range bufs {
		t.sent++
		t.bytes += int64(len(b))
	}
	release()
	return nil
}

// sheddingOwnedTransport models a transport whose queues are full: every
// owned burst is shed as one transaction (release consumed, queue-full
// error returned).
type sheddingOwnedTransport struct {
	countingTransport
	shedFrames int64
}

func (t *sheddingOwnedTransport) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	t.shedFrames += int64(len(bufs))
	release()
	return overlay.ErrSendQueueFull
}

// fanoutFlow installs one established middle-of-graph flow fanning two
// parents out to eight children, and returns a refillable round.
func fanoutFlow(tb testing.TB, n *Node) (*shard, *flowState, *roundSlot, []wire.NodeID, [][]byte) {
	tb.Helper()
	const d = 2
	const flow = wire.FlowID(7)
	parents := []wire.NodeID{100, 101}
	children := make([]wire.NodeID, 8)
	childFlows := make([]wire.FlowID, 8)
	dataMap := make([]wire.DataForward, 8)
	for i := range children {
		children[i] = wire.NodeID(2 + i)
		childFlows[i] = wire.FlowID(50 + i)
		dataMap[i] = wire.DataForward{Parent: parents[i%2], Child: uint8(i)}
	}
	info := &wire.PerNodeInfo{
		Children: children, ChildFlows: childFlows, DataMap: dataMap,
	}
	fs := &flowState{flow: flow, lastActive: n.stamp(time.Now())}
	fs.setRoute(info)
	fs.route.d = d
	fs.declareParents(info, 0)
	rng := rand.New(rand.NewSource(2))
	enc, err := code.NewEncoder(d, d, rng)
	if err != nil {
		tb.Fatal(err)
	}
	chunk := make([]byte, 1200*d)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		tb.Fatal(err)
	}
	raw := [][]byte{wire.EncodeSlot(slices[0]), wire.EncodeSlot(slices[1])}
	r := &roundSlot{from: []wire.NodeID{parents[0], parents[1]}, got: []code.Slice{slices[0], slices[1]}, raw: raw}
	return n.shardFor(flow), fs, r, parents, raw
}

// TestEgressQueueFullShedReleasesAndCounts drives one staged round into a
// transport that sheds every batch: the shed batches' references must come
// back (only the shard's open slab stays out, until Close) and every shed
// frame must land in SendDrops.
func TestEgressQueueFullShedReleasesAndCounts(t *testing.T) {
	tr := &sheddingOwnedTransport{}
	n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sh, fs, r, _, _ := fanoutFlow(t, n)
	sh.do(func() {
		n.stageRound(sh, fs, 1, r)
		n.runEgress(sh)
	})
	if tr.shedFrames != 8 {
		t.Fatalf("shed %d frames, want 8", tr.shedFrames)
	}
	if got := n.Counters().Get("send_drops"); got != 8 {
		t.Fatalf("SendDrops = %d, want 8", got)
	}
	if got := n.egPool.Outstanding(); got != 1 {
		t.Fatalf("outstanding %d after a shed, want 1 (the open slab)", got)
	}
	n.Close()
	if got := n.egPool.Outstanding(); got != 0 {
		t.Fatalf("slab leaked on shed: outstanding %d after Close", got)
	}

	// A copying transport sheds each frame; the batch's queue-full error
	// counts all its frames in send_drops the same.
	cp, err := New(1, &sheddingTransport{}, Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	sh, fs, r, _, _ = fanoutFlow(t, cp)
	sh.do(func() {
		cp.stageRound(sh, fs, 1, r)
		cp.runEgress(sh)
	})
	if c := cp.Counters(); c.Get("send_drops") != 8 || c.Get("packets_out") != 8 {
		t.Fatalf("counters %v, want 8 packets out, all shed", c)
	}
}

// sheddingTransport is a copying transport whose queues are all full.
type sheddingTransport struct{ countingTransport }

func (t *sheddingTransport) Send(from, to wire.NodeID, data []byte) error {
	return overlay.ErrSendQueueFull
}

// holdingOwnedTransport keeps every owned batch — its frames as views and
// as copies taken at hand-off — and releases nothing until told to.
type holdingOwnedTransport struct {
	countingTransport
	views, copies [][]byte
	releases      []func()
}

func (t *holdingOwnedTransport) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	for _, b := range bufs {
		t.views = append(t.views, b)
		t.copies = append(t.copies, append([]byte(nil), b...))
	}
	t.releases = append(t.releases, release)
	return nil
}

// Many small bursts share one egress slab: with every batch still held by
// the transport, as many one-round bursts as fit in a slab claim a single
// slab (one Get, so one outstanding) where per-burst slabs would claim one
// each. Each burst appends behind the frames already handed out, so the
// earlier views are never written again, and every frame is byte for byte
// what framing its round alone produces.
func TestEgressSlabSpansBursts(t *testing.T) {
	tr := &holdingOwnedTransport{}
	n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sh, fs, r, parents, raw := fanoutFlow(t, n)
	bursts := uint32(slabSize / (8 * (wire.HeaderLen + len(raw[0]))))
	// Staging a round clears the slot's tables, which start out as these.
	got, raw := append([]code.Slice(nil), r.got...), append([][]byte(nil), raw...)
	for seq := uint32(0); seq < bursts; seq++ {
		sh.do(func() { // one burst, its egress drained
			r.forwarded = false
			r.from, r.got, r.raw = append(r.from[:0], parents...), append(r.got[:0], got...), append(r.raw[:0], raw...)
			n.stageRound(sh, fs, seq, r)
			n.runEgress(sh)
		})
	}
	if len(tr.views) != int(8*bursts) {
		t.Fatalf("transport took %d frames, want %d", len(tr.views), 8*bursts)
	}
	if got := n.egPool.Outstanding(); got != 1 {
		t.Fatalf("%d bursts claimed %d slabs, want 1", bursts, got)
	}
	slotLen, info := uint16(len(raw[0])), routeOf(fs)
	for i, v := range tr.views {
		seq, e := uint32(i/8), info.DataMap[i%8]
		want := wire.AppendPacketHeader(nil, wire.MsgData, info.ChildFlows[e.Child], seq, fs.route.d, slotLen, 1)
		want = append(want, raw[i%2]...)
		if !bytes.Equal(tr.copies[i], want) {
			t.Fatalf("frame %d (round %d) differs from framing its round alone", i, seq)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("frame %d (round %d) was overwritten by a later burst", i, seq)
		}
	}
	// The slab has no room for another burst like the last: it rolled at that
	// drain, so once the transport lets go nothing holds it.
	for _, release := range tr.releases {
		release()
	}
	if got := n.egPool.Outstanding(); got != 0 {
		t.Fatalf("outstanding %d with every batch of a full slab released, want 0", got)
	}
	n.Close()
	if got := n.egPool.Outstanding(); got != 0 {
		t.Fatalf("outstanding %d after Close, want 0", got)
	}
}

// capturingOwnedTransport keeps a copy of the last frame sent to each
// destination through the owned path.
type capturingOwnedTransport struct {
	countingTransport
	frames map[wire.NodeID][]byte
}

func (t *capturingOwnedTransport) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	for _, b := range bufs {
		t.frames[to] = append([]byte(nil), b...)
	}
	release()
	return nil
}

// A forwarded frame is the slot that arrived, verbatim: byte for byte what
// framing the slice afresh (AppendPacketHeader + AppendSlot) produces. A
// regenerated frame is framed afresh, under a CRC of its own that checks,
// and carries a slice in the round's span.
func TestEgressForwardsSlotsVerbatim(t *testing.T) {
	tr := &capturingOwnedTransport{frames: map[wire.NodeID][]byte{}}
	n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const d, flow, seq = 2, wire.FlowID(7), uint32(9)
	info := &wire.PerNodeInfo{Children: wmChildren, ChildFlows: []wire.FlowID{0xc1, 0xc2, 0xc3}, Recode: true}
	for i, p := range wmParents {
		info.DataMap = append(info.DataMap, wire.DataForward{Parent: p, Child: uint8(i)})
	}
	fs := &flowState{flow: flow, lastActive: n.stamp(time.Now())}
	fs.setRoute(info)
	fs.route.d = d
	fs.declareParents(info, 0)
	rng := rand.New(rand.NewSource(3))
	enc, err := code.NewEncoder(d, len(wmParents), rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 777)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	r := &roundSlot{}
	for p := 0; p < 2; p++ { // the third parent's slice never came
		raw := wire.EncodeSlot(slices[p])
		sl, err := wire.DecodeSlot(raw, d)
		if err != nil {
			t.Fatal(err)
		}
		r.from, r.got, r.raw = append(r.from, wmParents[p]), append(r.got, sl), append(r.raw, raw)
	}
	sh := n.shardFor(flow)
	sh.do(func() {
		n.stageRound(sh, fs, seq, r)
		n.runEgress(sh)
	})

	slotLen := uint16(wire.SlotLenFor(d, len(slices[0].Payload)))
	for p := 0; p < 2; p++ {
		want := wire.AppendPacketHeader(nil, wire.MsgData, info.ChildFlows[p], seq, d, slotLen, 1)
		want = wire.AppendSlot(want, slices[p])
		if got := tr.frames[wmChildren[p]]; !bytes.Equal(got, want) {
			t.Fatalf("frame to child %d differs from framing its slice afresh:\n got %x\nwant %x", p, got, want)
		}
	}
	pkt, err := wire.UnmarshalPacket(tr.frames[wmChildren[2]])
	if err != nil || pkt.Type != wire.MsgData || pkt.Flow != info.ChildFlows[2] || pkt.Seq != seq || pkt.SlotLen != slotLen {
		t.Fatalf("regenerated frame header: %+v, %v", pkt, err)
	}
	fresh, err := wire.DecodeSlot(pkt.Slots[0], d)
	if err != nil {
		t.Fatalf("regenerated frame's CRC does not check: %v", err)
	}
	// fresh = a·s0 + b·s1 with (a, b) ≠ 0, so it spans the round with one of them.
	a, _ := code.Decode(d, []code.Slice{fresh, slices[0]})
	b, _ := code.Decode(d, []code.Slice{fresh, slices[1]})
	if !bytes.Equal(a, chunk) && !bytes.Equal(b, chunk) {
		t.Fatal("regenerated slice is not in the round's span")
	}
	if c := n.Counters(); c.Get("regenerated") != 1 || c.Get("packets_out") != 3 {
		t.Fatalf("counters %v, want 1 regenerated of 3 packets out", c)
	}
}

// BenchmarkForwardFanout gates the owned egress stage in isolation: one
// claimed round fanning 2 parents out to 8 children — stage, frame into a
// pooled slab, one owned batch per destination. The
// steady state allocates nothing (bench_baseline.json pins 0 allocs/op);
// the round is refilled in place each op because staging claims its slices.
func BenchmarkForwardFanout(b *testing.B) {
	tr := &ownedCountingTransport{}
	n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	sh, fs, r, parents, raw := fanoutFlow(b, n)
	got := append([]code.Slice(nil), r.got...)
	b.SetBytes(int64(8 * (wire.HeaderLen + len(raw[0]))))
	b.ReportAllocs()
	b.ResetTimer()
	sh.do(func() {
		for i := 0; i < b.N; i++ {
			// stageRound consumed the previous claims (the slot released
			// its views).
			r.forwarded = false
			r.from, r.got, r.raw = append(r.from, parents...), append(r.got, got...), append(r.raw, raw...)
			n.stageRound(sh, fs, uint32(i), r)
			n.runEgress(sh)
		}
	})
	b.StopTimer()
	if want := int64(b.N * 8); tr.sent != want {
		b.Fatalf("sent %d frames, want %d", tr.sent, want)
	}
	n.Close()
	if got := n.egPool.Outstanding(); got != 0 {
		b.Fatalf("slab refs leaked: outstanding %d after Close", got)
	}
}
