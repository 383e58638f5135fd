// Package eval reproduces the evaluation of the paper. figures.go declares
// every printed figure once, with its parameters: the anonymity figures of
// §6 (Figs. 7-10, from package anonymity's sweeps), the throughput and
// set-up figures of §7 (Figs. 11-15, perf.go), the analytic and
// experimental churn figures of §8 (Figs. 16-17, churn.go) and this
// repository's live-repair extension (Fig. 19, repair.go).
//
// Every run of §7 and §8 is one virtual universe, a testbed: a
// simnet.Script hosting the full protocol stacks — relays with their real
// timers, slicing sources, onion relays and senders. Every time is read from the virtual clock, so
// each figure is a function of its seed.
package eval

import (
	"math/rand"
	"sync"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/onion"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// testbed is one virtual universe and what it hosts: relays, onion nodes
// and the slicing flows dialled across them. Close it when done.
type testbed struct {
	*simnet.Script
	relays map[wire.NodeID]*relay.Node
	onions []*onion.Node
	flows  []*flow
	byFlow map[wire.FlowID]*flow // by the flow id its destination sees
}

// flow is one slicing flow on a testbed and what it has sent and had
// delivered so far.
type flow struct {
	g      *core.Graph
	eps    *source.Endpoints
	snd    *source.Sender
	spares []wire.NodeID // what start's repair loop may splice in

	sent, delivered, bytes int
	last                   time.Duration // virtual time of the latest delivery
}

func newTestbed(seed int64, link simnet.LinkProfile) *testbed {
	clk := simnet.NewVirtualClock()
	return &testbed{
		Script: &simnet.Script{Clk: clk, Net: simnet.NewSimNet(clk, seed, link)},
		relays: make(map[wire.NodeID]*relay.Node),
		byFlow: make(map[wire.FlowID]*flow),
	}
}

// Relay shapes; addRelays gives each relay its own Rng and the testbed's
// clock.
var (
	// perfRelay is the relay of §7's runs.
	perfRelay = relay.Config{
		SetupWait:  300 * time.Millisecond,
		RoundWait:  300 * time.Millisecond,
		FlowTTL:    5 * time.Minute,
		GCInterval: 30 * time.Second,
	}
	// churnRelay is the relay of §8's sessions.
	churnRelay = relay.Config{
		SetupWait:  40 * time.Millisecond,
		RoundWait:  40 * time.Millisecond,
		FlowTTL:    time.Minute,
		GCInterval: time.Second,
	}
	// controlRelay is churnRelay with the live control plane on.
	controlRelay = func() relay.Config {
		c := churnRelay
		c.Heartbeat = 10 * time.Millisecond
		return c
	}()
)

// simLink is the link of every §8 universe: a small fixed one-way delay so
// packets interleave across stages the way a LAN's would.
var simLink = simnet.LinkProfile{Delay: 500 * time.Microsecond}

// nodeIDs returns n consecutive node ids from first.
func nodeIDs(first wire.NodeID, n int) []wire.NodeID {
	out := make([]wire.NodeID, n)
	for i := range out {
		out[i] = first + wire.NodeID(i)
	}
	return out
}

// addRelays hosts a relay shaped like cfg at each of ids; relay id draws
// from its own Rng, seeded seed+id.
func (tb *testbed) addRelays(ids []wire.NodeID, cfg relay.Config, seed int64) error {
	for _, id := range ids {
		c := cfg
		c.Rng = rand.New(rand.NewSource(seed + int64(id)))
		c.Clock = tb.Clk
		n, err := relay.New(id, tb.Net, c)
		if err != nil {
			return err
		}
		tb.relays[id] = n
	}
	return nil
}

// dial attaches spec's sources, builds its graph and a sender for it that
// cuts messages into rounds of chunk bytes. spec.Rng drives both.
func (tb *testbed) dial(spec core.Spec, chunk int) (*flow, error) {
	eps, err := source.AttachEndpoints(tb.Net, spec.Sources)
	if err != nil {
		return nil, err
	}
	g, err := core.Build(spec)
	if err != nil {
		eps.Close()
		return nil, err
	}
	fl := &flow{g: g, eps: eps, snd: source.New(tb.Net, g, source.Config{ChunkPayload: chunk, Clock: tb.Clk}, spec.Rng)}
	tb.flows = append(tb.flows, fl)
	tb.byFlow[g.Flows[g.Dest]] = fl
	return fl, nil
}

// start establishes fl and starts its repair loop, which splices in
// fl.spares in order; without spares it only detects.
func (fl *flow) start() error {
	if err := fl.snd.Establish(); err != nil {
		return err
	}
	used := make(map[wire.NodeID]bool)
	return fl.snd.StartRepair(fl.eps, source.RepairConfig{
		Heartbeat: 10 * time.Millisecond,
		// The loop calls Pick under its sender's lock.
		Pick: func(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
			for _, id := range fl.spares {
				if !used[id] && !exclude(id) {
					used[id] = true
					return id, true
				}
			}
			return 0, false
		},
	})
}

// send streams msg down fl.
func (fl *flow) send(msg []byte) error {
	if err := fl.snd.Send(msg); err != nil {
		return err
	}
	fl.sent++
	return nil
}

// victims returns k relays of the first stage that does not hold the
// destination — the canonical same-stage failure schedule — or nil.
func (fl *flow) victims(k int) []wire.NodeID {
	for l, stage := range fl.g.Stages {
		if l+1 != fl.g.DestStage && len(stage) >= k {
			return append([]wire.NodeID(nil), stage[:k]...)
		}
	}
	return nil
}

// established steps virtual time, at most max ahead, until every relay of
// every flow has decoded its routing block; it reports whether they did.
func (tb *testbed) established(max time.Duration) bool {
	var nodes []*relay.Node
	var flows []wire.FlowID
	for _, fl := range tb.flows {
		for _, id := range fl.g.Relays {
			nodes, flows = append(nodes, tb.relays[id]), append(flows, fl.g.Flows[id])
		}
	}
	return relay.AwaitEstablished(tb.Clk, max, nodes, flows)
}

// drain credits every message waiting at a destination to its flow. Flows
// may share a destination; its flow id tells them apart. A destination's
// channel is bounded and drops when full, so a long session drains as it
// streams.
func (tb *testbed) drain() {
	for _, fl := range tb.flows {
		var m relay.Message
		for recv(tb.relays[fl.g.Dest].Received(), &m) {
			if to := tb.byFlow[m.Flow]; to != nil {
				to.delivered++
				to.bytes += len(m.Data)
				to.last = tb.Elapsed()
			}
		}
	}
}

// caughtUp drains and reports whether every flow has had as many messages
// delivered as it sent.
func (tb *testbed) caughtUp() bool {
	tb.drain()
	for _, fl := range tb.flows {
		if fl.delivered < fl.sent {
			return false
		}
	}
	return true
}

// addOnions hosts an onion relay at each of ids and returns them in order.
func (tb *testbed) addOnions(ids []wire.NodeID) ([]*onion.Node, error) {
	dir, err := directory(ids)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		n, err := onion.NewNode(id, dir, tb.Net)
		if err != nil {
			return nil, err
		}
		tb.onions = append(tb.onions, n)
	}
	return tb.onions[len(tb.onions)-len(ids):], nil
}

// onionSender attaches a transmit-only onion sender at id, drawing circuit
// ids from rng and session keys from a reader seeded keySeed.
func (tb *testbed) onionSender(id wire.NodeID, rng *rand.Rand, keySeed int64) (*onion.Sender, error) {
	if err := tb.Net.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
		return nil, err
	}
	return onion.NewSender(id, tb.Net, dir, rng, seededReader{rand.New(rand.NewSource(keySeed))}), nil
}

func (tb *testbed) close() {
	for _, fl := range tb.flows {
		fl.snd.StopRepair()
		fl.eps.Close()
	}
	for _, n := range tb.relays {
		n.Close()
	}
	for _, n := range tb.onions {
		n.Close()
	}
	tb.Net.Close()
}

// Onion identities shared by every run in the process, each generated from
// its id: a virtual-time run depends on the sizes of keys, never on their
// bits, and RSA key generation would otherwise dominate a figure's running
// time.
var (
	dirMu sync.Mutex
	dir   = onion.NewDirectory()
)

// directory returns the shared directory, holding identities for ids.
func directory(ids []wire.NodeID) (*onion.Directory, error) {
	dirMu.Lock()
	defer dirMu.Unlock()
	for _, id := range ids {
		if _, ok := dir.Identity(id); ok {
			continue
		}
		// 1024-bit keys: the smallest size that fits an OAEP-SHA256 key wrap.
		if err := dir.Generate(seededReader{rand.New(rand.NewSource(int64(id)))}, 1024, id); err != nil {
			return nil, err
		}
	}
	return dir, nil
}

// recv moves one buffered message from ch into *dst, reporting whether
// there was one.
func recv[T any](ch <-chan T, dst *T) bool {
	select {
	case *dst = <-ch:
		return true
	default:
		return false
	}
}

// seededReader adapts math/rand to io.Reader for deterministic key material.
type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte(s.r.Intn(256))
	}
	return len(b), nil
}
