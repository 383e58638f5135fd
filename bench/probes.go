package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/core"
	"infoslicing/internal/gf"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// The probes replay a workload's shapes (d, d', slice length, message size)
// through one layer's exported functions, alone on one goroutine, so each
// layer has a cost that does not depend on what the others were doing. A
// sample times a batch of calls, sized so the two clock reads around it are
// a small part of it; the metric is the median sample divided by the batch.

const probeSamples = 2000

// probe returns the median cost of one call of fn in nanoseconds, over n
// samples of batch calls each.
func probe(n, batch int, fn func()) float64 {
	for i := 0; i < batch*20; i++ {
		fn() // warm caches and reusable scratch
	}
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn()
		}
		samples[i] = float64(time.Since(t0)) / float64(batch)
	}
	return median(samples)
}

// probeLayers measures every P row of the per-layer table.
func probeLayers(wl *workload, seed int64, n int) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	sliceLen := wl.sliceLen()
	chunk := sliceLen*wl.D - 4

	// gf
	src, dst := make([]byte, sliceLen), make([]byte, sliceLen)
	rng.Read(src)
	out["gf.mulslice_ns_per_kb"] = probe(n, 32, func() { gf.MulSlice(0x53, src, dst) }) * 1024 / float64(sliceLen)

	// code
	enc, err := code.NewEncoder(wl.D, wl.DPrime, rng)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, chunk)
	rng.Read(plain)
	var slices []code.Slice
	out["code.encode_ns_per_round"] = probe(n, 4, func() {
		if slices, err = enc.EncodeInto(plain, slices); err != nil {
			panic(err)
		}
	})
	dec, err := code.NewDecoder(wl.D)
	if err != nil {
		return nil, err
	}
	out["code.decode_ns_per_round"] = probe(n, 4, func() {
		if _, err := dec.Decode(slices[:wl.D]); err != nil {
			panic(err)
		}
	})
	regen := wl.DPrime - wl.D
	if regen == 0 {
		regen = 1
	}
	var fresh []code.Slice
	out["code.recombine_ns_per_round"] = probe(n, 4, func() {
		if fresh, err = code.RecombineInto(fresh, slices[:wl.D], regen, rng); err != nil {
			panic(err)
		}
	})

	// wire: frame and parse one single-slot data packet, CRC included.
	slotLen := wire.SlotLenFor(wl.D, sliceLen)
	var frame []byte
	out["wire.frame_ns_per_pkt"] = probe(n, 16, func() {
		frame = wire.AppendPacketHeader(frame[:0], wire.MsgData, 7, 1, uint8(wl.D), uint16(slotLen), 1)
		frame = wire.AppendSlot(frame, slices[0])
	})
	out["wire.parse_ns_per_pkt"] = probe(n, 16, func() {
		pkt, err := wire.UnmarshalPacket(frame)
		if err != nil {
			panic(err)
		}
		if _, err := wire.DecodeSlot(pkt.Slots[0], wl.D); err != nil {
			panic(err)
		}
	})

	// slcrypto
	var key slcrypto.SymmetricKey
	rng.Read(key[:])
	msg := make([]byte, wl.msgBytes)
	rng.Read(msg)
	var sealed []byte
	out["slcrypto.seal_ns_per_msg"] = probe(n, 2, func() {
		if sealed, err = key.Seal(rng, msg); err != nil {
			panic(err)
		}
	})
	out["slcrypto.open_ns_per_msg"] = probe(n, 2, func() {
		if _, err := key.Open(sealed); err != nil {
			panic(err)
		}
	})

	// core
	relays := make([]wire.NodeID, wl.L*wl.DPrime)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	srcs := make([]wire.NodeID, wl.DPrime)
	for i := range srcs {
		srcs[i] = wire.NodeID(firstSource + i)
	}
	spec := core.Spec{L: wl.L, D: wl.D, DPrime: wl.DPrime, Relays: relays, Dest: relays[0],
		Sources: srcs, Recode: true, Scramble: true, Rng: rng}
	out["core.build_us_per_graph"] = probe(n, 1, func() {
		if _, err := core.Build(spec); err != nil {
			panic(err)
		}
	}) / 1e3

	if err := probeRelay(wl, seed, n, out); err != nil {
		return nil, err
	}
	return out, nil
}

// capture is the transport under the relay probes: it keeps the one attached
// node's handler and counts what the node sends, releasing owned bursts at
// once, so the node runs its real paths with no socket behind them.
type capture struct {
	overlay.TransportBase
	mu      sync.Mutex
	handler overlay.Handler
	frames  atomic.Int64
}

func (c *capture) Attach(_ wire.NodeID, h overlay.Handler) error {
	c.mu.Lock()
	c.handler = h
	c.mu.Unlock()
	return nil
}
func (c *capture) Detach(wire.NodeID) {}
func (c *capture) Send(_, _ wire.NodeID, _ []byte) error {
	c.frames.Add(1)
	return nil
}
func (c *capture) SendOwned(_, _ wire.NodeID, bufs [][]byte, release func()) error {
	c.frames.Add(int64(len(bufs)))
	release()
	return nil
}

// waitFrames blocks until the node has sent n frames.
func (c *capture) waitFrames(n int64) error {
	deadline := time.Now().Add(messageTimeout)
	for spins := 0; c.frames.Load() < n; spins++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("relay probe: %d of %d frames after %v", c.frames.Load(), n, messageTimeout)
		}
		runtime.Gosched()
	}
	return nil
}

// probeRelay drives one relay.Node on a capturing transport. The node sits
// in stage 1 of a graph from core.Build, so everything it needs — set-up
// packets, then d' data frames per round — comes straight from source
// endpoints and can be built here. The costs include the hand-off from the
// handler to the shard worker, as they do in the daemon.
func probeRelay(wl *workload, seed int64, n int, out map[string]float64) error {
	const self = wire.NodeID(1)
	if wl.L < 2 {
		return fmt.Errorf("relay probe needs L >= 2")
	}
	rng := rand.New(rand.NewSource(seed + 1))
	tr := &capture{}
	node, err := relay.New(self, tr, relay.Config{MaxFlows: 1 << 16, Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return err
	}
	defer node.Close()

	relays := make([]wire.NodeID, wl.L*wl.DPrime)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	srcs := make([]wire.NodeID, wl.DPrime)
	for i := range srcs {
		srcs[i] = wire.NodeID(firstSource + i)
	}
	build := func() (*core.Graph, error) {
		return buildGraph(wl, relays, srcs, rng.Int63(), relays[len(relays)-1], self)
	}
	// setUp feeds the node its set-up packets and waits until it has
	// decoded its routing block.
	setUp := func(g *core.Graph) error {
		for _, s := range g.Setup {
			if s.To == self {
				tr.handler(s.From, s.Pkt.Marshal())
			}
		}
		deadline := time.Now().Add(messageTimeout)
		for !node.Established(g.Flows[self]) {
			if time.Now().After(deadline) {
				return fmt.Errorf("relay probe: flow not established")
			}
			runtime.Gosched()
		}
		return nil
	}

	// relay.setup_us_per_flow: graphs are built beforehand, only the node's
	// work is timed.
	graphs := make([]*core.Graph, n)
	for i := range graphs {
		if graphs[i], err = build(); err != nil {
			return err
		}
	}
	samples := make([]float64, len(graphs))
	for i, g := range graphs {
		t0 := time.Now()
		if err := setUp(g); err != nil {
			return err
		}
		samples[i] = float64(time.Since(t0)) / 1e3
	}
	out["relay.setup_us_per_flow"] = median(samples)

	// relay.forward_ns_per_pkt: rounds of d' frames in, d' frames out.
	g := graphs[0]
	enc, err := code.NewEncoder(wl.D, wl.DPrime, rng)
	if err != nil {
		return err
	}
	plain := make([]byte, wl.sliceLen()*wl.D-4)
	rng.Read(plain)
	slices, err := enc.Encode(plain)
	if err != nil {
		return err
	}
	// The handler owns what it is given, so every frame of every round is
	// its own allocation, made before the clock starts.
	const roundsPerSample = 16
	perRound := int64(len(g.Infos[self].DataMap))
	var seq uint32
	lost := 0
	forward := make([]float64, n)
	for i := range forward {
		frames := make([][]byte, 0, roundsPerSample*wl.DPrime)
		for r := 0; r < roundsPerSample; r++ {
			for e := range srcs {
				slotLen := wire.SlotLenFor(wl.D, len(slices[e].Payload))
				f := wire.AppendPacketHeader(nil, wire.MsgData, g.Flows[self], seq, uint8(wl.D), uint16(slotLen), 1)
				frames = append(frames, wire.AppendSlot(f, slices[e]))
			}
			seq++
		}
		want := tr.frames.Load() + roundsPerSample*perRound
		t0 := time.Now()
		for k, f := range frames {
			tr.handler(srcs[k%len(srcs)], f)
		}
		if err := tr.waitFrames(want); err != nil {
			// The node lost a round, as the overlay does once in 10⁵
			// (README, limit (f)). One sample is not the probe.
			if lost++; lost > n/100 {
				return err
			}
			forward[i] = float64(messageTimeout)
			continue
		}
		forward[i] = float64(time.Since(t0)) / float64(len(frames))
	}
	out["relay.forward_ns_per_pkt"] = median(forward)

	// relay.lookup_miss_ns: a heartbeat for a flow the node never heard of
	// is rejected by the front filter on the caller's goroutine.
	miss := wire.AppendPacketHeader(nil, wire.MsgHeartbeat, 0xdeadbeefcafe, 0, 0, 0, 0)
	out["relay.lookup_miss_ns"] = probe(n, 32, func() { tr.handler(srcs[0], miss) })
	return nil
}
