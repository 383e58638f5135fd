package relay

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/wire"
)

// countingTransport swallows sends so the benchmark measures only the relay
// data path, not a transport.
type countingTransport struct {
	overlay.TransportBase
	handler overlay.Handler
	sent    int64
	bytes   int64
}

func (t *countingTransport) Attach(id wire.NodeID, h overlay.Handler) error {
	t.handler = h
	return nil
}
func (t *countingTransport) Detach(wire.NodeID) {}
func (t *countingTransport) Send(from, to wire.NodeID, data []byte) error {
	t.sent++
	t.bytes += int64(len(data))
	return nil
}

// process injects one datagram on its shard and waits for it: the
// single-packet degenerate burst, egress included, for tests that drive a
// shard directly instead of through its queue.
func (n *Node) process(sh *shard, from wire.NodeID, data []byte) {
	sh.do(func() { n.processHere(sh, from, data) })
}

// processHere is process for a caller already on the shard's worker, doing
// what the driver does for a burst: read the clock, step, flush. A benchmark
// runs its whole loop inside one sh.do, so it measures the forward path and
// not a goroutine hand-off per packet.
func (n *Node) processHere(sh *shard, from wire.NodeID, data []byte) {
	n.step(sh, n.stamp(n.clk.Now()), []inPkt{{from: from, data: data}})
	n.flush(sh)
}

// BenchmarkForwardDataPacket measures the steady-state relay forward path —
// unmarshal, slot verify, round bookkeeping, re-frame, send — for one data
// packet through an established middle-of-graph flow. ReportAllocs guards
// the zero-copy pipeline: a future change that reintroduces per-packet
// copies or garbage shows up here as allocs/op.
func BenchmarkForwardDataPacket(b *testing.B) {
	for _, regen := range []bool{false, true} {
		name := "forward"
		if regen {
			name = "forward+regen"
		}
		b.Run(name, func(b *testing.B) {
			tr := &countingTransport{}
			n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()

			const d = 2
			const dp = 3
			const flow = wire.FlowID(7)
			parents := []wire.NodeID{100, 101, 102}
			info := &wire.PerNodeInfo{
				Children:   []wire.NodeID{2, 3, 4},
				ChildFlows: []wire.FlowID{55, 56, 57},
				Recode:     regen,
				DataMap: []wire.DataForward{
					{Parent: parents[0], Child: 0},
					{Parent: parents[1], Child: 1},
					{Parent: parents[2], Child: 2},
				},
			}
			fs := injectFlow(n, flow, info)
			if regen {
				// One parent is dead: its child's slice is regenerated every
				// round from the survivors' degrees of freedom (d of them
				// remain, so the round is decodable).
				fs.hops()[fs.hopIndex(parents[2])].miss = deadParentStreak
			}
			sh := n.shardFor(flow)

			rng := rand.New(rand.NewSource(2))
			enc, err := code.NewEncoder(d, dp, rng)
			if err != nil {
				b.Fatal(err)
			}
			chunk := make([]byte, 1200*d)
			rng.Read(chunk)
			slices, err := enc.Encode(chunk)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-frame one packet per parent; the benchmark loop patches the
			// sequence number in place.
			bufs := make([][]byte, len(parents))
			for i := range bufs {
				s := slices[i]
				slotLen := len(s.Coeff) + len(s.Payload) + 4
				buf := wire.AppendPacketHeader(nil, wire.MsgData, flow, 0, d, uint16(slotLen), 1)
				bufs[i] = wire.AppendSlot(buf, s)
			}
			active := len(parents)
			if regen {
				active = len(parents) - 1
			}
			b.SetBytes(int64(active * len(bufs[0])))
			b.ReportAllocs()
			b.ResetTimer()
			// Drive the shard-worker path (parse, verify, round bookkeeping,
			// re-frame, send) synchronously on the worker: the benchmark
			// measures forward latency, not queue hand-off, and reusing bufs
			// in place requires the single-owner discipline the worker provides.
			sh.do(func() {
				for i := 0; i < b.N; i++ {
					seq := uint32(i)
					for p := 0; p < active; p++ {
						binary.BigEndian.PutUint32(bufs[p][9:], seq)
						n.processHere(sh, parents[p], bufs[p])
					}
				}
			})
			b.StopTimer()
			if want := int64(b.N * len(info.DataMap)); tr.sent < want {
				b.Fatalf("forwarded %d packets, want >= %d", tr.sent, want)
			}
		})
	}
}

// BenchmarkForwardBurst measures what burst draining amortizes: the same
// single-parent forward path driven one packet at a time (the pre-burst shard
// loop) versus a step of up to the burst bound — per-burst parse batch, one
// clock reading, one egress drain. Each
// packet is its own round, so every packet pays the full forward cost and
// the delta is pure per-packet overhead.
func BenchmarkForwardBurst(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("burst=%d", k), func(b *testing.B) {
			tr := &countingTransport{}
			n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()

			const d = 2
			const flow = wire.FlowID(7)
			const parent = wire.NodeID(100)
			info := &wire.PerNodeInfo{
				Children:   []wire.NodeID{2},
				ChildFlows: []wire.FlowID{55},
				DataMap:    []wire.DataForward{{Parent: parent, Child: 0}},
			}
			injectFlow(n, flow, info)
			sh := n.shardFor(flow)

			rng := rand.New(rand.NewSource(2))
			enc, err := code.NewEncoder(d, d, rng)
			if err != nil {
				b.Fatal(err)
			}
			chunk := make([]byte, 1200*d)
			rng.Read(chunk)
			slices, err := enc.Encode(chunk)
			if err != nil {
				b.Fatal(err)
			}
			// One pre-framed buffer per burst slot: headers for the whole
			// burst are parsed before dispatch, so slots cannot share bytes.
			s := slices[0]
			slotLen := len(s.Coeff) + len(s.Payload) + 4
			burst := make([]inPkt, k)
			for j := range burst {
				buf := wire.AppendPacketHeader(nil, wire.MsgData, flow, 0, d, uint16(slotLen), 1)
				burst[j] = inPkt{from: parent, data: wire.AppendSlot(buf, s)}
			}
			b.SetBytes(int64(k * len(burst[0].data)))
			b.ReportAllocs()
			b.ResetTimer()
			// Each iteration is one full burst of k packets, every packet its
			// own round (seq strictly increasing).
			sh.do(func() {
				for i := 0; i < b.N; i++ {
					for j := range burst {
						binary.BigEndian.PutUint32(burst[j].data[9:], uint32(i*k+j))
					}
					n.step(sh, n.stamp(n.clk.Now()), burst)
					n.flush(sh)
				}
			})
			b.StopTimer()
			perPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N*k)
			b.ReportMetric(perPkt, "ns/pkt")
			if want := int64(b.N * k); tr.sent != want {
				b.Fatalf("forwarded %d packets, want %d", tr.sent, want)
			}
		})
	}
}

// BenchmarkFlowLookup measures what a flow-addressed packet costs a relay
// holding lookupResident flows, by whether its flow is resident:
//
//   - "hit": a heartbeat for a resident flow — parse, flat map lookup,
//     liveness stamp. The steady-state cost of being a known flow.
//   - "miss": a heartbeat for an absent flow, from onPacket through the shard
//     queue to the worker's map miss, counted in unmatched. What a stranger's
//     forged control traffic costs; bench_baseline.json pins it at zero
//     allocs/op.
//   - "fresh": a data packet under a fresh flow-id through the same path: the
//     worker admits a flow and buffers the packet for its set-up. A relay
//     cannot authenticate flow creation (§9.2), so this door is always open,
//     and "miss" must cost no more than it (DESIGN.md, "Flow-addressed
//     traffic for an absent flow").
func BenchmarkFlowLookup(b *testing.B) {
	const lookupResident = 1024
	setup := func(b *testing.B) (*Node, *shard, wire.FlowID) {
		tr := &countingTransport{}
		n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		var target wire.FlowID
		for i := 0; i < lookupResident; i++ {
			flow := wire.FlowID(0xf10c_0000 + uint64(i)*2654435761)
			fs := &flowState{flow: flow, lastActive: n.stamp(time.Now())}
			sh := n.shardFor(flow)
			sh.do(func() {
				sh.flows[flow] = fs
				sh.lruPush(fs)
			})
			n.flowCount.Add(1)
			target = flow
		}
		return n, n.shardFor(target), target
	}
	// absent returns k flow-ids of sh that the table does not hold.
	absent := func(n *Node, sh *shard, k int) []wire.FlowID {
		var ids []wire.FlowID
		for f := wire.FlowID(0xdead_0000); len(ids) < k; f++ {
			if n.shardFor(f) == sh {
				ids = append(ids, f)
			}
		}
		return ids
	}
	// push hands frames[i%len(frames)] to onPacket for i in [0, b.N), in
	// batches no larger than the shard queue; between batches it waits until
	// the worker has stepped all of them, then runs between (timer stopped).
	push := func(b *testing.B, n *Node, sh *shard, frames [][]byte, between func()) {
		const from = wire.NodeID(100)
		for i := 0; i < b.N; {
			k := min(b.N-i, queueDepth)
			for j := range k {
				n.onPacket(from, frames[(i+j)%len(frames)])
			}
			i += k
			for len(sh.in) > 0 {
				sh.do(func() {})
			}
			sh.do(func() {}) // the worker is back from the batch's last burst
			if between != nil {
				b.StopTimer()
				between()
				b.StartTimer()
			}
		}
	}

	b.Run("hit", func(b *testing.B) {
		n, sh, flow := setup(b)
		const from = wire.NodeID(100)
		buf := wire.AppendHeartbeat(nil, flow)
		b.ReportAllocs()
		b.ResetTimer()
		// Synchronous single-packet dispatch (the degenerate burst): the
		// benchmark measures lookup cost, not queue hand-off.
		sh.do(func() {
			for i := 0; i < b.N; i++ {
				n.processHere(sh, from, buf)
			}
		})
		b.StopTimer()
		if got := n.Counters().Get("heartbeats_in"); got < int64(b.N) {
			b.Fatalf("HeartbeatsIn = %d, want >= %d", got, b.N)
		}
	})

	b.Run("miss", func(b *testing.B) {
		n, sh, _ := setup(b)
		frames := [][]byte{wire.AppendHeartbeat(nil, absent(n, sh, 1)[0])}
		before := n.Counters()
		b.ReportAllocs()
		b.ResetTimer()
		push(b, n, sh, frames, nil)
		b.StopTimer()
		moved := n.Counters().Sub(before)
		if got := moved.Get("unmatched"); got != int64(b.N) {
			b.Fatalf("unmatched = %d, want %d", got, b.N)
		}
		if got := moved.Get("queue_drops"); got != 0 {
			b.Fatalf("queue_drops = %d, want 0", got)
		}
		if got := n.FlowTableSize(); got != lookupResident {
			b.Fatalf("table holds %d flows, want %d", got, lookupResident)
		}
	})

	b.Run("fresh", func(b *testing.B) {
		n, sh, _ := setup(b)
		ids := absent(n, sh, queueDepth)
		frames := make([][]byte, len(ids))
		for i, f := range ids {
			frames[i] = junkDataFrame(f)
		}
		// Evict the batch's flows so the next batch's ids are fresh again.
		evict := func() {
			sh.do(func() {
				for _, f := range ids {
					if fs := sh.flows[f]; fs != nil {
						n.removeFlow(sh, fs, false)
					}
				}
			})
		}
		before := n.Counters()
		b.ReportAllocs()
		b.ResetTimer()
		push(b, n, sh, frames, evict)
		b.StopTimer()
		moved := n.Counters().Sub(before)
		if got := moved.Get("data_in"); got != int64(b.N) {
			b.Fatalf("data_in = %d, want %d", got, b.N)
		}
		if got := moved.Get("queue_drops") + moved.Get("flows_rejected"); got != 0 {
			b.Fatalf("queue_drops + flows_rejected = %d, want 0", got)
		}
	})
}

// BenchmarkFlowSetup measures what admitting one flow costs a relay: a
// stage-2 node of an L=3, d=2, d'=3 graph takes its three set-up packets —
// create, retain, decode the routing block, index the children, frame and
// send the wave to stage 3 — and the flow is evicted again. A relay cannot
// authenticate flow creation (§9.2), so this is its admission capacity, and
// every allocation in it is one a stranger can make the node perform.
func BenchmarkFlowSetup(b *testing.B) {
	g := stagingGraph(b)
	// Real stage-1 relays turn the source's wave into the target's input.
	target := g.Stages[1][0]
	wave := waveInto(b, g, target)
	if len(wave) != 3 {
		b.Fatalf("stage 1 sent the target %d set-up packets, want 3", len(wave))
	}
	tr := &countingTransport{}
	n, err := New(target, tr, Config{Shards: 1, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	sh, flow := n.shards[0], g.Flows[target]
	b.ReportAllocs()
	b.ResetTimer()
	sh.do(func() {
		for i := 0; i < b.N; i++ {
			for _, a := range wave {
				n.processHere(sh, a.from, a.frame)
			}
			n.removeFlow(sh, sh.flows[flow], true)
		}
	})
	b.StopTimer()
	if est := n.Counters().Get("flows_established"); est != int64(b.N) || tr.sent != int64(3*b.N) {
		b.Fatalf("%d flows established and %d set-up packets forwarded in %d rounds, want %d and %d",
			est, tr.sent, b.N, b.N, 3*b.N)
	}
}

// ackFanIn installs flows established flows that all list one child and
// returns a function that delivers that child's ack for the first of them,
// to be called on the shard's worker (inside sh.do).
func ackFanIn(tb testing.TB, flows int) (ack func(), sh *shard, tr *countingTransport) {
	const child = wire.NodeID(77)
	tr = &countingTransport{}
	n, err := New(1, tr, Config{Shards: 1, MaxFlows: flows, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	fs := sharedChildFlows(n, flows, child)[0]
	frame := ackFrame(faninChildFlow(0))
	return func() {
		fs.ackSent = false // re-arm: the ack is deduped per flow
		n.processHere(n.shards[0], child, frame)
	}, n.shards[0], tr
}

// BenchmarkAckFanIn measures an establishment ack arriving for one flow
// while N others on the node share its child: one exact-match lookup, one
// upstream ack, whatever N is. An ack is the one packet a relay accepts
// without any flow-id of its own in it, so a cost that grew with the table
// would hand strangers a lever (§9.2).
func BenchmarkAckFanIn(b *testing.B) {
	for _, flows := range []int{16, 16384} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			ack, sh, tr := ackFanIn(b, flows)
			b.ReportAllocs()
			b.ResetTimer()
			sh.do(func() {
				for i := 0; i < b.N; i++ {
					ack()
				}
			})
			b.StopTimer()
			if tr.sent != int64(b.N) {
				b.Fatalf("%d acks in, %d upstream acks out", b.N, tr.sent)
			}
		})
	}
}

// TestAckCostIndependentOfTableSize holds the ack path to its O(1) claim: a
// thousand times the flows sharing the child may not cost ten times as much
// per ack (iterating them, as the per-child index used to, costs a hundred).
func TestAckCostIndependentOfTableSize(t *testing.T) {
	perAck := func(flows int) time.Duration {
		ack, sh, _ := ackFanIn(t, flows)
		best := time.Duration(1 << 62)
		sh.do(func() {
			for rep := 0; rep < 5; rep++ {
				start := time.Now()
				for i := 0; i < 2000; i++ {
					ack()
				}
				best = min(best, time.Since(start)/2000)
			}
		})
		return best
	}
	small, large := perAck(16), perAck(16384)
	t.Logf("per ack: %v with 16 flows sharing the child, %v with 16384", small, large)
	if large > 10*small {
		t.Errorf("an ack costs %v with 16384 flows sharing its child and %v with 16: it grows with the table", large, small)
	}
}
