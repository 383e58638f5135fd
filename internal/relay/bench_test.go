package relay

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
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

// process injects one datagram on its shard synchronously: the single-packet
// degenerate burst, egress included, for tests and benchmarks that drive a
// shard directly instead of through its queue and worker.
func (n *Node) process(sh *shard, from wire.NodeID, data []byte) {
	p := processScratch.Get().(*[1]wire.Packet)
	n.processBurst(sh, []inPkt{{from: from, data: data}}, p[:])
	n.runEgress(sh)
	p[0] = wire.Packet{}
	processScratch.Put(p)
}

var processScratch = sync.Pool{New: func() any { return new([1]wire.Packet) }}

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
			fs := &flowState{
				flow:       flow,
				setupPkts:  make(map[wire.NodeID]*wire.Packet),
				ownByD:     make(map[int][]code.Slice),
				geomByD:    make(map[int][2]int),
				seen:       make(map[wire.NodeID]bool),
				info:       info,
				parents:    map[wire.NodeID]bool{parents[0]: true, parents[1]: true, parents[2]: true},
				d:          d,
				lastActive: time.Now(),
			}
			if regen {
				// One parent is dead: its child's slice is regenerated every
				// round from the survivors' degrees of freedom (d of them
				// remain, so the round is decodable).
				fs.missStreak = map[wire.NodeID]int{parents[2]: deadParentStreak}
			}
			sh := n.shardFor(flow)
			sh.mu.Lock()
			sh.flows[flow] = fs
			sh.lruPushLocked(fs)
			fs.inFilter = sh.filter.insert(uint64(flow), sh.rng)
			n.dirAddLocked(sh, fs, info)
			sh.mu.Unlock()
			n.flowCount.Add(1)

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
			// re-frame, send) synchronously: the benchmark measures forward
			// latency, not queue hand-off, and reusing bufs in place requires
			// the single-owner discipline the worker normally provides.
			for i := 0; i < b.N; i++ {
				seq := uint32(i)
				for p := 0; p < active; p++ {
					binary.BigEndian.PutUint32(bufs[p][9:], seq)
					n.process(sh, parents[p], bufs[p])
				}
			}
			b.StopTimer()
			if want := int64(b.N * len(info.DataMap)); tr.sent < want {
				b.Fatalf("forwarded %d packets, want >= %d", tr.sent, want)
			}
		})
	}
}

// BenchmarkForwardBurst measures what burst draining amortizes: the same
// single-parent forward path driven one packet at a time (the pre-burst shard
// loop) versus through processBurst at the default burst bound — per-burst
// parse batch, one lock acquisition, one done-check, one stats flush. Each
// packet is its own round, so every packet pays the full forward cost and
// the delta is pure per-packet overhead.
func BenchmarkForwardBurst(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("burst=%d", k), func(b *testing.B) {
			tr := &countingTransport{}
			n, err := New(1, tr, Config{Rng: rand.New(rand.NewSource(1)), Burst: k})
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
			fs := &flowState{
				flow:       flow,
				setupPkts:  make(map[wire.NodeID]*wire.Packet),
				ownByD:     make(map[int][]code.Slice),
				geomByD:    make(map[int][2]int),
				seen:       make(map[wire.NodeID]bool),
				info:       info,
				parents:    map[wire.NodeID]bool{parent: true},
				d:          d,
				lastActive: time.Now(),
			}
			sh := n.shardFor(flow)
			sh.mu.Lock()
			sh.flows[flow] = fs
			sh.lruPushLocked(fs)
			fs.inFilter = sh.filter.insert(uint64(flow), sh.rng)
			n.dirAddLocked(sh, fs, info)
			sh.mu.Unlock()
			n.flowCount.Add(1)

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
			parsed := make([]wire.Packet, k)
			b.SetBytes(int64(k * len(burst[0].data)))
			b.ReportAllocs()
			b.ResetTimer()
			// Each iteration is one full burst of k packets, every packet its
			// own round (seq strictly increasing).
			for i := 0; i < b.N; i++ {
				for j := range burst {
					binary.BigEndian.PutUint32(burst[j].data[9:], uint32(i*k+j))
				}
				n.processBurst(sh, burst, parsed)
				n.runEgress(sh)
			}
			b.StopTimer()
			perPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N*k)
			b.ReportMetric(perPkt, "ns/pkt")
			if want := int64(b.N * k); tr.sent != want {
				b.Fatalf("forwarded %d packets, want %d", tr.sent, want)
			}
		})
	}
}

// BenchmarkFlowLookup measures the two flow-table lookup paths the cuckoo
// front filter splits, against a table holding lookupResident flows:
//
//   - "hit": a heartbeat for a resident flow — parse, shard lock, flat map
//     lookup, liveness stamp. The steady-state cost of being a known flow.
//   - "miss": a heartbeat for an absent flow through onPacket — the per-shard
//     cuckoo filter must reject it on the transport goroutine without taking
//     the shard lock or allocating. bench_baseline.json pins this path at
//     zero allocs/op; a regression here means non-flow traffic is back on
//     the shard locks.
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
			fs := &flowState{
				flow:       flow,
				seen:       make(map[wire.NodeID]bool, 2),
				lastActive: time.Now(),
			}
			sh := n.shardFor(flow)
			sh.mu.Lock()
			sh.flows[flow] = fs
			sh.lruPushLocked(fs)
			fs.inFilter = sh.filter.insert(uint64(flow), sh.rng)
			sh.mu.Unlock()
			n.flowCount.Add(1)
			target = flow
		}
		return n, n.shardFor(target), target
	}

	b.Run("hit", func(b *testing.B) {
		n, sh, flow := setup(b)
		const from = wire.NodeID(100)
		buf := wire.AppendHeartbeat(nil, flow)
		b.ReportAllocs()
		b.ResetTimer()
		// Synchronous single-packet dispatch (the degenerate burst): the
		// benchmark measures lookup cost, not queue hand-off.
		for i := 0; i < b.N; i++ {
			if !sh.filter.mayContain(uint64(flow)) {
				b.Fatal("resident flow rejected by filter (false negative)")
			}
			n.process(sh, from, buf)
		}
		b.StopTimer()
		if got := n.Stats().HeartbeatsIn; got < int64(b.N) {
			b.Fatalf("HeartbeatsIn = %d, want >= %d", got, b.N)
		}
	})

	b.Run("miss", func(b *testing.B) {
		n, sh, _ := setup(b)
		const from = wire.NodeID(100)
		// Pick an absent flow that is a true filter negative (a false
		// positive would route to the shard worker and measure the wrong
		// path; with 2x headroom one exists within a handful of probes).
		miss := wire.FlowID(0xdead_0000)
		for sh2 := n.shardFor(miss); sh2 != sh || sh2.filter.mayContain(uint64(miss)); sh2 = n.shardFor(miss) {
			miss++
		}
		buf := wire.AppendHeartbeat(nil, miss)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.onPacket(from, buf)
		}
		b.StopTimer()
		if got := sh.filterMisses.Load(); got != int64(b.N) {
			b.Fatalf("filterMisses = %d, want %d (miss path reached a shard)", got, b.N)
		}
	})
}
