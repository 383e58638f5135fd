package simnet

import (
	"encoding/binary"
	"fmt"
	"time"

	"infoslicing/internal/wire"
)

// Universe is the 10^5–10^6-node scale substrate: N lightweight nodes on
// one SimNet, each wired to Degree deterministic pseudo-random neighbors,
// exchanging fixed-size "walker" packets that hop neighbor to neighbor
// every HopDelay. It exists to exercise the event core at realistic
// scale — millions of deliveries per second of wall time — with strictly
// bounded per-node memory, and to host scale experiments (anonymity
// sweeps, trace-driven churn) far beyond what protocol-stack universes
// can reach.
//
// Determinism: the topology, the walker schedule, and every delivery
// derive from (Seed, config) alone. Walkers are injected in a fixed
// number of phase buckets; with a fixed HopDelay all walkers of a bucket
// stay synchronized forever, so each virtual instant carries many
// same-instant deliveries, fired one at a time in canonical order.
type Universe struct {
	S   *Script
	cfg UniverseConfig

	// recv counts deliveries per node, written by the handler on the
	// driver and read between runs.
	recv      []int64
	neighbors []wire.NodeID // Degree entries per node
	dropped   int64         // walkers that died on a dead next-hop
}

// UniverseConfig sizes a Universe.
type UniverseConfig struct {
	Nodes   int
	Degree  int // neighbors per node (default 4)
	Walkers int // circulating packets (default Nodes/10)
	Payload int // walker packet size in bytes (default 64, min 8)
	// HopDelay is the fixed per-hop link delay (default 1ms). Fixed — not
	// jittered — so same-phase walkers share one instant per hop.
	HopDelay time.Duration
	Phases   int   // walker phase buckets (default 8)
	TTL      int   // hops before a walker dies (default: effectively unbounded)
	Seed     int64 // topology + schedule seed
}

func (c *UniverseConfig) normalize() error {
	if c.Nodes < 2 {
		return fmt.Errorf("simnet: universe needs >= 2 nodes, got %d", c.Nodes)
	}
	if c.Degree <= 0 {
		c.Degree = 4
	}
	if c.Walkers <= 0 {
		c.Walkers = c.Nodes / 10
		if c.Walkers == 0 {
			c.Walkers = 1
		}
	}
	if c.Payload < 8 {
		c.Payload = 64
	}
	if c.HopDelay <= 0 {
		c.HopDelay = time.Millisecond
	}
	if c.Phases <= 0 {
		c.Phases = 8
	}
	if c.TTL <= 0 {
		c.TTL = 1 << 30
	}
	return nil
}

// NewUniverse attaches cfg.Nodes nodes (ids 1..Nodes) to the script's
// network and wires the walker topology. Payload pooling is enabled on
// the net: universe handlers never retain delivered buffers.
func NewUniverse(s *Script, cfg UniverseConfig) (*Universe, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	u := &Universe{
		S:         s,
		cfg:       cfg,
		recv:      make([]int64, cfg.Nodes),
		neighbors: make([]wire.NodeID, cfg.Nodes*cfg.Degree),
	}
	s.Net.SetPooledPayloads(true)
	for i := 0; i < cfg.Nodes; i++ {
		for j := 0; j < cfg.Degree; j++ {
			// Deterministic pseudo-random neighbor, never self.
			h := splitmix64(uint64(cfg.Seed) ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xbf58476d1ce4e5b9)
			nb := int(h % uint64(cfg.Nodes-1))
			if nb >= i {
				nb++
			}
			u.neighbors[i*cfg.Degree+j] = wire.NodeID(nb + 1)
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		idx := int32(i)
		if err := s.Net.Attach(wire.NodeID(i+1), func(from wire.NodeID, data []byte) {
			u.deliver(idx, data)
		}); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// deliver is every node's handler: count, and forward the walker to the
// next neighbor on its deterministic path.
func (u *Universe) deliver(node int32, data []byte) {
	u.recv[node]++
	ttl := binary.BigEndian.Uint32(data[4:8])
	if ttl == 0 {
		return
	}
	binary.BigEndian.PutUint32(data[4:8], ttl-1)
	id := wire.NodeID(node + 1)
	deg := u.cfg.Degree
	base := int(node) * deg
	// The walker's path is a pure function of (node, remaining ttl): try
	// the designated neighbor first, then rotate past dead ones.
	for k := 0; k < deg; k++ {
		nb := u.neighbors[base+(int(ttl)+k)%deg]
		if u.S.Net.Down(nb) {
			continue
		}
		if err := u.S.Net.Send(id, nb, data); err == nil {
			return
		}
	}
	// All neighbors dead: the walker dies here (reinjection, if wanted,
	// is the scenario's job).
}

// Seed injects the walkers, staggered across the phase buckets within one
// HopDelay, starting at the current virtual instant. Call once, then
// drive the clock.
func (u *Universe) Seed() {
	perPhase := u.cfg.HopDelay / time.Duration(u.cfg.Phases)
	for p := 0; p < u.cfg.Phases; p++ {
		phase := p
		u.S.Clk.AfterFunc(time.Duration(phase)*perPhase, func() { u.inject(phase) })
	}
}

func (u *Universe) inject(phase int) {
	buf := make([]byte, u.cfg.Payload)
	buf[0] = 0x77 // walker msg-type marker in traces
	for w := phase; w < u.cfg.Walkers; w += u.cfg.Phases {
		start := w % u.cfg.Nodes
		binary.BigEndian.PutUint32(buf[4:8], uint32(u.cfg.TTL))
		nb := u.neighbors[start*u.cfg.Degree]
		// Errors (start node currently down) just skip the walker.
		_ = u.S.Net.Send(wire.NodeID(start+1), nb, buf)
	}
}

// Run advances the universe a further window of virtual time.
func (u *Universe) Run(window time.Duration) {
	u.S.Run(u.S.Elapsed() + window)
}

// Deliveries reports the total number of walker deliveries so far.
func (u *Universe) Deliveries() int64 {
	var t int64
	for i := range u.recv {
		t += u.recv[i]
	}
	return t
}

// NodeIDs returns all universe node ids (for churn specs).
func (u *Universe) NodeIDs() []wire.NodeID {
	ids := make([]wire.NodeID, u.cfg.Nodes)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	return ids
}
