package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

type netKind int

const (
	netTCP netKind = iota
	netUDP
	netChan
)

// workload is one set of inputs the benchmark runs. The overlay is real but
// lives in this process: relays, source and sink talk over the host's
// loopback sockets (or ChanNetwork), so what is measured is the program's
// CPU and queueing, never a link.
type workload struct {
	name string
	why  string

	net          netKind
	L, D, DPrime int
	relays       int
	flows        int // data workloads: concurrent flows; churn: dialers
	msgBytes     int
	chunkPayload int // plaintext bytes per round (0: the source's default)

	window int     // closed loop: messages in flight per flow
	rate   float64 // open loop: messages per second per flow (0: closed loop)

	// flowMsgs bounds a data flow: half way through it the driver dials its
	// successor and moves the transfer over (see slot). It keeps every flow
	// well under the 8192 rounds a relay keeps per flow.
	flowMsgs int

	failStage1 bool // fail one stage-1 relay after establishment
	churn      bool // each operation builds, establishes, proves and abandons a flow
	resident   int  // churn: idle flows established during set-up

	flowTTL, gcInterval time.Duration
	maxFlows            int

	warmup     time.Duration
	traceEvery int // the traced window records every n-th message
}

// dataTTL is the relays' FlowTTL in the data workloads: short, so the state
// of finished transfers is reaped and the heap reaches a steady size within
// the warm-up. At 3 s bulk_tcp's peak RSS is 3 GB instead of 1.3 GB. It is
// shorter than messageTimeout, so a transfer whose whole window was lost
// finds its flow evicted when it gives up waiting; the driver dials a new
// one on any timeout, as a client would.
const dataTTL = time.Second

// The message sizes leave room for the 32 B seal and the 4 B length frame
// the source adds, so bulk_tcp's message is exactly two full 2400 B rounds
// (two 1.2 KB slices each, the paper's packet size) and not two rounds plus
// a 36 B stub.
var workloads = []workload{
	{
		name: "bulk_tcp",
		why:  "4.7 KB messages over loopback TCP at window 4: bytes dominate (GF kernels, coding, CRC, copies, writev), per-packet overhead is diluted",
		net:  netTCP, L: 3, D: 2, DPrime: 2, relays: 6, flows: 2,
		msgBytes: 2*2400 - 36, chunkPayload: 2400, window: 4, flowMsgs: 2048,
		flowTTL: dataTTL, gcInterval: dataTTL / 4,
		warmup: 5 * time.Second, traceEvery: 8,
	},
	{
		name: "small_udp",
		why:  "64 B messages over loopback UDP, 16 flows: per-packet cost dominates (shard queue, filter, framing, sendmmsg), coding is negligible",
		// d' = 3, one slice of redundancy: the UDP transport never retransmits
		// and loopback does lose a datagram now and then, which at d' = d is
		// a lost message every time.
		net: netUDP, L: 2, D: 2, DPrime: 3, relays: 16, flows: 16,
		msgBytes: 64, window: 2, flowMsgs: 4096,
		flowTTL: dataTTL, gcInterval: dataTTL / 4,
		warmup: 5 * time.Second, traceEvery: 8,
	},
	{
		name: "paced_degraded_tcp",
		why:  "open loop at 400 msg/s per flow with one stage-1 relay failed: every round is regenerated by recoding, latency is read below saturation",
		net:  netTCP, L: 3, D: 2, DPrime: 3, relays: 9, flows: 4,
		// 400 msg/s per flow, not more: when a round is lost the receiver
		// stalls for GapWait (600 ms) and then releases what queued behind it
		// into the 256-slot Received() channel at once. Above ~425 msg/s the
		// burst overflows it and one lost round becomes hundreds of failed
		// messages.
		msgBytes: 1200, rate: 400, failStage1: true, flowMsgs: 2048,
		flowTTL: dataTTL, gcInterval: dataTTL / 4,
		warmup: 5 * time.Second, traceEvery: 1,
	},
	{
		name: "flow_churn_chan",
		why:  "build, establish, prove with one message, abandon, on ChanNetwork with 1 s TTL: table inserts, admission, timers and eviction beside lookups",
		net:  netChan, L: 3, D: 2, DPrime: 3, relays: 12, flows: 2,
		msgBytes: 1200, churn: true, resident: 512,
		flowTTL: time.Second, gcInterval: 250 * time.Millisecond, maxFlows: 1 << 15,
		warmup: time.Second, traceEvery: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// roundsPerMsg is how many data rounds one message becomes: the source
// seals it (+32 B), frames it (+4 B) and cuts it into ChunkPayload pieces.
func (w *workload) roundsPerMsg() int {
	chunk := w.chunkPayload
	if chunk == 0 {
		chunk = 1200 * w.D
	}
	return (w.msgBytes + 36 + chunk - 1) / chunk
}

// sliceLen is the payload length of a full round's slices: the coder adds a
// 4 B length prefix to the chunk and cuts it into d blocks.
func (w *workload) sliceLen() int {
	chunk := w.chunkPayload
	if chunk == 0 {
		chunk = 1200 * w.D
	}
	if framed := w.msgBytes + 36; framed < chunk {
		chunk = framed
	}
	return (chunk + 4 + w.D - 1) / w.D
}

// cell is one overlay: a transport, its relays and the flows set up on it.
type cell struct {
	wl    *workload
	seed  int64
	net   overlay.Transport // what relays and senders talk to (the tracer, when tracing)
	inner overlay.Transport // the network underneath
	nodes []*relay.Node
	byID  map[wire.NodeID]*relay.Node
	pool  []wire.NodeID

	slots  []*slot     // data workloads: the concurrent transfers
	failed wire.NodeID // the relay failed by failStage1, 0 if none

	retiredSendDrops atomic.Int64 // Sender.SendDrops of flows already replaced

	estMu       sync.Mutex
	establishMs []float64 // Establish call → every graph relay Established, per flow
}

func newNetwork(k netKind, seed int64) overlay.Transport {
	switch k {
	case netTCP:
		return overlay.NewTCPNetwork()
	case netUDP:
		// The 10 s default RTO ceiling is a WAN safety net; on loopback one
		// backed-off timeout would stall a peer for whole windows.
		opts := overlay.UDPOptions{}
		opts.Config.MaxRTO = time.Second
		return overlay.NewUDPNetwork(opts)
	default:
		return overlay.NewChanNetwork(overlay.Unshaped(), rand.New(rand.NewSource(seed)))
	}
}

// newCell builds the overlay for a workload. wrap, when not nil, decorates
// the network before anything attaches to it.
func newCell(wl *workload, seed int64, wrap func(overlay.Transport) overlay.Transport) (*cell, error) {
	c := &cell{wl: wl, seed: seed, byID: make(map[wire.NodeID]*relay.Node)}
	c.inner = newNetwork(wl.net, seed)
	c.net = c.inner
	if wrap != nil {
		c.net = wrap(c.inner)
	}
	for i := 0; i < wl.relays; i++ {
		id := wire.NodeID(i + 1)
		cfg := relay.Config{
			FlowTTL:    wl.flowTTL,
			GCInterval: wl.gcInterval,
			MaxFlows:   wl.maxFlows,
			Rng:        rand.New(rand.NewSource(seed*1000 + int64(i))),
		}
		n, err := relay.New(id, c.net, cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("relay %d: %w", id, err)
		}
		c.nodes = append(c.nodes, n)
		c.byID[id] = n
		c.pool = append(c.pool, id)
	}
	return c, nil
}

func (c *cell) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	c.net.Close()
}

// attachSources registers the d' source endpoints of one sender. They only
// transmit, so the handler discards.
func (c *cell) attachSources(base int) ([]wire.NodeID, error) {
	srcs := make([]wire.NodeID, c.wl.DPrime)
	for i := range srcs {
		srcs[i] = wire.NodeID(base + i)
		if err := c.net.Attach(srcs[i], func(wire.NodeID, []byte) {}); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// buildGraph runs core.Build for a graph over relays with dest in the last
// stage and, when stage1 is not 0, that relay in the first. Build shuffles
// the relays with the first draws of its rng, so a twin rng on the same seed
// predicts the layout and seeds whose layout does not fit are skipped
// without building; the result is checked all the same, so a Build that no
// longer shuffles first costs attempts, not correctness.
func buildGraph(wl *workload, relays, srcs []wire.NodeID, seed int64, dest, stage1 wire.NodeID) (*core.Graph, error) {
	last := (wl.L - 1) * wl.DPrime
	mismatches := 0
	for attempt := int64(0); attempt < 4096 && mismatches < 64; attempt++ {
		s := seed + attempt*7919
		shuffled := append([]wire.NodeID(nil), relays...)
		rand.New(rand.NewSource(s)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if !contains(shuffled[last:], dest) || (stage1 != 0 && !contains(shuffled[:wl.DPrime], stage1)) {
			continue
		}
		g, err := core.Build(core.Spec{
			L: wl.L, D: wl.D, DPrime: wl.DPrime,
			Relays: relays, Dest: dest, Sources: srcs,
			Recode: true, Scramble: true, Rng: rand.New(rand.NewSource(s)),
		})
		if err != nil {
			return nil, err
		}
		if g.DestStage == wl.L && (stage1 == 0 || g.StageOf(stage1) == 1) {
			return g, nil
		}
		mismatches++
	}
	return nil, fmt.Errorf("no layout with relay %d in stage %d", dest, wl.L)
}

// pickRelays draws the L·d' relays of one graph from the pool; the first
// drawn is the destination. must, when not 0, is always among them and is
// never the destination.
func (c *cell) pickRelays(rng *rand.Rand, dest, must wire.NodeID) []wire.NodeID {
	need := c.wl.L * c.wl.DPrime
	out := make([]wire.NodeID, 0, need)
	if dest != 0 {
		out = append(out, dest)
	}
	if must != 0 {
		out = append(out, must)
	}
	for _, pi := range rng.Perm(len(c.pool)) {
		if id := c.pool[pi]; len(out) < need && !contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// established reports whether every relay of the graph has decoded its
// routing block. The destination alone is not enough: a relay that never
// established buffers data forever and silently eats the redundancy.
func (c *cell) established(g *core.Graph) bool {
	for _, id := range g.Relays {
		if id == c.failed && c.net.Down(id) {
			continue // it will never hear of the flow; its stage works around it
		}
		if n := c.byID[id]; n == nil || !n.Established(g.Flows[id]) {
			return false
		}
	}
	return true
}

const establishTimeout = 10 * time.Second // set-up; a renewal gives up after messageTimeout, a churn dial after attemptTimeout

// establishWait injects the set-up wave and waits for established. Set-up
// frames ride the same best-effort transport as data, so a wave that lost a
// frame is injected again (idempotent at the relays) every 500 ms. Returns
// the time from the Establish call to established.
func (c *cell) establishWait(snd *source.Sender, timeout time.Duration) (time.Duration, error) {
	g := snd.Graph()
	t0 := time.Now()
	next := t0
	for spins := 0; ; spins++ {
		now := time.Now()
		if !now.Before(next) {
			if err := snd.Establish(); err != nil {
				return 0, err
			}
			next = now.Add(500 * time.Millisecond)
		}
		if c.established(g) {
			return time.Since(t0), nil
		}
		if now.Sub(t0) > timeout {
			return 0, fmt.Errorf("flow to %d not established after %v", g.Dest, timeout)
		}
		pollPause(spins)
	}
}

// dialFlow builds and establishes generation gen of a slot's flow.
func (c *cell) dialFlow(sl *slot, gen int, timeout time.Duration) (*flow, error) {
	rng := rand.New(rand.NewSource(c.seed*7_000_003 + int64(sl.idx)*101 + int64(gen)*1_000_003))
	relays := c.pickRelays(rng, sl.dest.ID(), c.failed)
	g, err := buildGraph(c.wl, relays, sl.srcs, rng.Int63(), sl.dest.ID(), c.failed)
	if err != nil {
		return nil, err
	}
	snd := source.New(c.net, g, source.Config{ChunkPayload: c.wl.chunkPayload}, rand.New(rand.NewSource(rng.Int63())))
	d, err := c.establishWait(snd, timeout)
	if err != nil {
		return nil, err
	}
	c.estMu.Lock()
	c.establishMs = append(c.establishMs, float64(d)/1e6)
	c.estMu.Unlock()
	return &flow{slot: sl, gen: gen, snd: snd,
		inflight: make(map[uint32]sent), expired: make(map[uint32]sent)}, nil
}

// setupFlows establishes what the workload starts with: the first flow of
// every slot of a data workload, the idle resident flows of the churn one.
func (c *cell) setupFlows() error {
	wl := c.wl
	if wl.churn {
		return c.setupResident()
	}
	if wl.failStage1 {
		c.failed = c.pool[0]
	}
	for i := 0; i < wl.flows; i++ {
		// Transfers end at distinct relays, none of them the one to fail.
		sl := &slot{idx: i, dest: c.byID[c.pool[(i+1)%len(c.pool)]]}
		if sl.dest.ID() == c.failed {
			return fmt.Errorf("slot %d would end at the relay to fail", i)
		}
		var err error
		if sl.srcs, err = c.attachSources(firstSource + i*100); err != nil {
			return err
		}
		f, err := c.dialFlow(sl, 0, establishTimeout)
		if err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
		sl.cur.Store(f)
		c.slots = append(c.slots, sl)
	}
	if c.failed != 0 {
		c.net.Fail(c.failed)
	}
	return nil
}

// setupResident fills the relays' tables with idle flows before the churn
// starts. Nothing is ever sent on them, so they share source endpoints and
// destinations; the TTL reaps them during the warm-up.
func (c *cell) setupResident() error {
	srcs, err := c.attachSources(firstSource)
	if err != nil {
		return err
	}
	for f := 0; f < c.wl.resident; f++ {
		rng := rand.New(rand.NewSource(c.seed*7_000_003 + int64(f)*101))
		relays := c.pickRelays(rng, 0, 0)
		g, err := buildGraph(c.wl, relays, srcs, rng.Int63(), relays[0], 0)
		if err != nil {
			return fmt.Errorf("resident flow %d: %w", f, err)
		}
		snd := source.New(c.net, g, source.Config{}, rand.New(rand.NewSource(rng.Int63())))
		d, err := c.establishWait(snd, establishTimeout)
		if err != nil {
			return err
		}
		c.establishMs = append(c.establishMs, float64(d)/1e6)
	}
	return nil
}

func contains(ids []wire.NodeID, id wire.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
