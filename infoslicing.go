// Package infoslicing is a Go implementation of information slicing
// (Katti, Cohen, Katabi — "Information Slicing: Anonymity Using Unreliable
// Overlays", NSDI 2007): anonymous, confidential, churn-resilient
// communication over peer-to-peer overlays without any public-key
// cryptography.
//
// Instead of onion layers, the sender multiplies each message with a random
// matrix over GF(2^8), splits the result into d slices, and routes the
// slices along vertex-disjoint paths that meet only at the destination.
// Relays learn nothing but their own next hops; fewer than d slices carry
// no information at all; and with d' > d slices plus in-network network
// coding the flow survives relay churn.
//
// The package exposes a deliberately small facade:
//
//	nw := infoslicing.New(infoslicing.WithSeed(1))
//	defer nw.Close()
//	nw.Grow(24)                          // spin up overlay relays
//	conn, _ := nw.Dial(infoslicing.DialSpec{L: 3, D: 2})
//	conn.Send([]byte("Let's meet at 5pm"))
//	msg := <-conn.Received()             // delivered at the hidden destination
//
// The full machinery — coding (internal/code), forwarding-graph
// construction (internal/core), the relay daemon (internal/relay), overlay
// transports and churn (internal/overlay), baselines and evaluation
// harnesses — lives under internal/; see DESIGN.md for the map.
package infoslicing

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"time"

	"infoslicing/internal/asmap"
	"infoslicing/internal/core"
	"infoslicing/internal/overlay"
	"infoslicing/internal/relay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// NodeID identifies an overlay node.
type NodeID = wire.NodeID

// TransportStats re-exports the unified transport counter vocabulary.
type TransportStats = overlay.TransportStats

// staticFacade adapts the socket transport to the facade: node ids with a
// book entry bind their pre-agreed address, everything else — relays grown
// on the fly, transient source endpoints — binds a fresh loopback port that
// stays resolvable inside this process.
type staticFacade struct{ *overlay.Static }

func (s staticFacade) Attach(id wire.NodeID, h overlay.Handler) error {
	if err := s.Static.Attach(id, h); err == nil || !errors.Is(err, overlay.ErrUnknownNode) {
		return err
	}
	return s.AttachDynamic(id, h)
}

// Network is an in-process information-slicing overlay: a transport plus a
// set of relay daemons.
type Network struct {
	cfg config
	rng *rand.Rand
	chn overlay.Transport

	mu      sync.Mutex
	nodes   map[NodeID]*relay.Node
	addrs   map[NodeID]netip.Addr // synthetic IPs for AS-diverse selection
	asTable *asmap.Table
	nextID  NodeID
	nextSrc NodeID
	// routes holds, per destination relay with a demux goroutine, its
	// open Conns by flow id.
	routes  map[NodeID]map[wire.FlowID]*Conn
	done    chan struct{} // closed by Close: stops the demultiplexers
	demuxWG sync.WaitGroup
	closed  bool
}

// transportKind enumerates the substrates WithTransport can select.
type transportKind int

const (
	chanKind    transportKind = iota // in-memory ChanNetwork (default)
	tcpKind                          // overlay.Static over TCP sockets
	udpKind                          // overlay.Static over congestion-controlled datagrams
	virtualKind                      // simnet.SimNet on a virtual clock
)

type config struct {
	seed        int64
	relayCfg    relay.Config
	hasRelayCfg bool

	kind    transportKind
	vclk    *simnet.VirtualClock
	book    map[NodeID]string
	udpLoss float64
}

// clock returns the network's time source: the injected virtual clock, or
// the wall clock.
func (c *config) clock() simnet.Clock {
	if c.vclk != nil {
		return c.vclk
	}
	return simnet.Wall
}

// Option configures a Network.
type Option func(*config)

// WithSeed makes the network deterministic.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithRelayConfig overrides relay daemon timers.
func WithRelayConfig(rc relay.Config) Option {
	return func(c *config) { c.relayCfg = rc; c.hasRelayCfg = true }
}

// TransportSpec selects the overlay substrate a Network runs on. Exactly
// one substrate is active per Network; passing several WithTransport
// options is not an error — the last one wins (there is no panic-based
// exclusivity anymore). The zero default, with no WithTransport at all, is
// the unshaped in-memory ChanNetwork.
type TransportSpec interface {
	apply(*config)
}

// TCPSpec runs the overlay over real TCP sockets through the production
// peer layer (internal/transport: per-peer bounded queues, batched writev
// writers, reconnect with backoff). Book may pin listen addresses for
// specific node ids — the paper's pre-agreed address book (§7.1) — and may
// be nil or partial: ids without an entry bind a fresh loopback port,
// which in-process senders resolve transparently.
//
// For multi-process overlays use cmd/slicenode and cmd/slicesend with a
// shared book file instead of the facade.
type TCPSpec struct {
	Book map[NodeID]string
}

func (s TCPSpec) apply(c *config) {
	c.kind, c.book, c.vclk, c.udpLoss = tcpKind, s.Book, nil, 0
}

// UDPSpec runs the overlay over congestion-controlled UDP datagrams: the
// same peer core as TCPSpec, but frames pack whole into datagrams sent
// with sendmmsg under a per-destination CUBIC window paced by the
// transport's ack/echo channel. Lost datagrams are never retransmitted —
// the slicing redundancy (d' > d) absorbs loss, and persistent loss beyond
// the budget is escalated to splice repair on flows dialed with Repair.
//
// Loss injects an independent drop probability on every endpoint's inbound
// datagrams (a socket-level netem shim for experiments); zero for none.
type UDPSpec struct {
	Book map[NodeID]string
	Loss float64
}

func (s UDPSpec) apply(c *config) {
	c.kind, c.book, c.vclk, c.udpLoss = udpKind, s.Book, nil, s.Loss
}

// VirtualSpec runs the whole network — transport, relay timers,
// heartbeats, repair loops — on a virtual clock instead of the wall clock.
// The caller drives the universe by stepping the clock (RunFor,
// AwaitCond); combined with WithSeed the network becomes fully
// deterministic. A nil Clock gets a fresh one, reachable via
// Network.VirtualClock. Links are unshaped: packets arrive the instant they
// are sent.
type VirtualSpec struct {
	Clock *simnet.VirtualClock
}

func (s VirtualSpec) apply(c *config) {
	vc := s.Clock
	if vc == nil {
		vc = simnet.NewVirtualClock()
	}
	c.kind, c.vclk, c.book, c.udpLoss = virtualKind, vc, nil, 0
}

// WithTransport selects the overlay substrate (see TransportSpec). It is
// the single construction path for every transport flavour; a nil spec
// keeps the default in-memory network.
func WithTransport(spec TransportSpec) Option {
	return func(c *config) {
		if spec != nil {
			spec.apply(c)
		}
	}
}

// New creates an empty overlay network. Without WithSeed the seed derives
// from the process base seed (simnet.BaseSeed), so a failing run can be
// replayed by pinning INFOSLICING_SEED.
func New(opts ...Option) *Network {
	cfg := config{seed: simnet.NextSeed()}
	for _, o := range opts {
		o(&cfg)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// The synthetic BGP table stands in for route-views (§9.1): relays get
	// addresses inside it so DialSpec.ASDiverse can spread stages across
	// autonomous systems.
	table, err := asmap.Synthetic(64, rand.New(rand.NewSource(cfg.seed+2)))
	if err != nil {
		panic(err) // parameters are constants; unreachable
	}
	var tr overlay.Transport
	switch cfg.kind {
	case virtualKind:
		tr = simnet.NewSimNet(cfg.vclk, cfg.seed+1, simnet.LinkProfile{})
	case tcpKind:
		tr = staticFacade{overlay.NewStaticTCP(cfg.book)}
	case udpKind:
		tr = staticFacade{overlay.NewStaticUDP(cfg.book, overlay.UDPOptions{
			Loss: cfg.udpLoss,
			Seed: cfg.seed + 3,
		})}
	default:
		tr = overlay.NewChanNetwork(overlay.Unshaped(), nil)
	}
	return &Network{
		cfg:     cfg,
		rng:     rng,
		chn:     tr,
		nodes:   make(map[NodeID]*relay.Node),
		addrs:   make(map[NodeID]netip.Addr),
		asTable: table,
		nextID:  1,
		nextSrc: 1 << 20,
		routes:  make(map[NodeID]map[wire.FlowID]*Conn),
		done:    make(chan struct{}),
	}
}

// Errors.
var (
	ErrClosed    = errors.New("infoslicing: network closed")
	ErrTooSmall  = errors.New("infoslicing: not enough relays")
	ErrNoConsent = errors.New("infoslicing: destination not in network")
)

// Grow adds k relay daemons to the overlay and returns their ids.
func (nw *Network) Grow(k int) ([]NodeID, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.closed {
		return nil, ErrClosed
	}
	ids := make([]NodeID, 0, k)
	for i := 0; i < k; i++ {
		id := nw.nextID
		nw.nextID++
		rc := nw.cfg.relayCfg
		if !nw.cfg.hasRelayCfg {
			rc = relay.Config{
				SetupWait: 200 * time.Millisecond,
				RoundWait: 200 * time.Millisecond,
			}
		}
		rc.Clock = nw.cfg.clock()
		rc.Rng = rand.New(rand.NewSource(nw.cfg.seed + int64(id)*31))
		n, err := relay.New(id, nw.chn, rc)
		if err != nil {
			return ids, err
		}
		nw.nodes[id] = n
		nw.addrs[id] = asmap.RandomAddr(nw.rng)
		ids = append(ids, id)
	}
	return ids, nil
}

// Addr returns a relay's synthetic IP address (used by AS-diverse
// selection; real deployments would use the node's public address).
func (nw *Network) Addr(id NodeID) (netip.Addr, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	a, ok := nw.addrs[id]
	return a, ok
}

// Nodes lists the live relay ids.
func (nw *Network) Nodes() []NodeID {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	ids := make([]NodeID, 0, len(nw.nodes))
	for id := range nw.nodes {
		ids = append(ids, id)
	}
	return ids
}

// pickReplacement chooses a live spare relay for a flow's repair loop: any
// node of the overlay the exclusion predicate permits (it rules out the
// flow's current graph members and endpoints) that is not currently failed.
// Selection is random so repeated repairs spread load across the pool.
func (nw *Network) pickReplacement(exclude func(wire.NodeID) bool) (wire.NodeID, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	ids := make([]NodeID, 0, len(nw.nodes))
	for id := range nw.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	nw.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		if !exclude(id) && !nw.chn.Down(id) {
			return id, true
		}
	}
	return 0, false
}

// Fail crashes a relay (churn injection); Revive restores it.
func (nw *Network) Fail(id NodeID) { nw.chn.Fail(id) }

// Revive restores a failed relay.
func (nw *Network) Revive(id NodeID) { nw.chn.Revive(id) }

// Stats returns the transport's cumulative counters.
func (nw *Network) Stats() TransportStats { return nw.chn.Stats() }

// VirtualClock returns the network's virtual clock, or nil when it runs on
// the wall clock (useful with VirtualSpec{Clock: nil}, where the facade
// creates the clock).
func (nw *Network) VirtualClock() *simnet.VirtualClock { return nw.cfg.vclk }

// Close shuts down every relay and the transport.
func (nw *Network) Close() {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return
	}
	nw.closed = true
	close(nw.done)
	nodes := nw.nodes
	nw.nodes = map[NodeID]*relay.Node{}
	var conns []*Conn
	for _, flows := range nw.routes {
		for _, c := range flows {
			conns = append(conns, c)
		}
	}
	nw.mu.Unlock()
	for _, c := range conns {
		c.stop()
	}
	nw.demuxWG.Wait()
	for _, n := range nodes {
		n.Close()
	}
	nw.chn.Close()
}

// DialSpec configures an anonymous flow.
type DialSpec struct {
	L int // path length (relay stages); default 3
	D int // split factor; default 2

	// DPrime adds churn redundancy when > D (defaults to D).
	DPrime int

	// Dest pins the destination relay; 0 picks one at random.
	Dest NodeID

	// Recode disables in-network redundancy regeneration when set to false
	// explicitly via NoRecode.
	NoRecode bool
	// NoScramble disables the per-hop pattern-hiding transforms.
	NoScramble bool

	// ASDiverse selects relays spread across autonomous systems using the
	// network's synthetic BGP table (§9.1), limiting what an adversary who
	// owns large address blocks can place on the graph.
	ASDiverse bool

	// Repair runs the live-churn control plane for this flow: the source
	// endpoints stay attached as listeners, consume the ParentDown reports
	// relays flood toward them, and answer each with a splice that swaps a
	// spare relay in for the dead one mid-stream. Requires the network's
	// relays to run the control plane (a WithRelayConfig with Heartbeat
	// set); without it failures are never detected and Repair only adds the
	// listener.
	Repair bool

	// EstablishTimeout bounds the wait for the graph to come up
	// (default 10s).
	EstablishTimeout time.Duration
}

// Conn is one established anonymous flow from this process to a hidden
// destination relay.
type Conn struct {
	nw      *Network
	sender  *source.Sender
	graph   *core.Graph
	eps     *source.Endpoints // the transient source endpoints
	unwatch func()            // removes the transport loss watcher, if any

	recv     chan []byte
	done     chan struct{}
	stopOnce sync.Once

	setupTime time.Duration
}

// RepairStats is the view of a flow's repair counters.
type RepairStats struct {
	Reports, Splices int64
}

// Dial selects relays, builds a forwarding graph, establishes it, and waits
// until the destination can decode.
func (nw *Network) Dial(spec DialSpec) (*Conn, error) {
	if spec.L == 0 {
		spec.L = 3
	}
	if spec.D == 0 {
		spec.D = 2
	}
	if spec.DPrime == 0 {
		spec.DPrime = spec.D
	}
	if spec.EstablishTimeout == 0 {
		spec.EstablishTimeout = 10 * time.Second
	}
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil, ErrClosed
	}
	need := spec.L * spec.DPrime
	ids := make([]NodeID, 0, len(nw.nodes))
	for id := range nw.nodes {
		ids = append(ids, id)
	}
	if len(ids) < need {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: need %d, have %d", ErrTooSmall, need, len(ids))
	}
	// Deterministic order before shuffling (map iteration is random).
	slices.Sort(ids)
	nw.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if spec.ASDiverse {
		// Reorder candidates so AS diversity is maximised among the first
		// `need` picks (§9.1): one relay per AS before any AS repeats.
		byAddr := make(map[netip.Addr]NodeID, len(ids))
		cands := make([]netip.Addr, 0, len(ids))
		for _, id := range ids {
			a := nw.addrs[id]
			byAddr[a] = id
			cands = append(cands, a)
		}
		picked, err := asmap.DiverseSelect(nw.asTable, cands, len(cands), nw.rng)
		if err == nil {
			ids = ids[:0]
			for _, a := range picked {
				ids = append(ids, byAddr[a])
			}
		}
	}
	var relays []NodeID
	if spec.Dest != 0 {
		if _, ok := nw.nodes[spec.Dest]; !ok {
			nw.mu.Unlock()
			return nil, ErrNoConsent
		}
		relays = append(relays, spec.Dest)
		for _, id := range ids {
			if id != spec.Dest && len(relays) < need {
				relays = append(relays, id)
			}
		}
	} else {
		relays = ids[:need]
		spec.Dest = relays[nw.rng.Intn(need)]
	}
	// Source endpoints: the sender plus pseudo-sources (§3c), listening
	// for acks and, with repair on, failure reports.
	srcs := make([]NodeID, spec.DPrime)
	for i := range srcs {
		srcs[i] = nw.nextSrc
		nw.nextSrc++
	}
	seed := nw.rng.Int63()
	destNode := nw.nodes[spec.Dest]
	nw.mu.Unlock()

	eps, err := source.AttachEndpoints(nw.chn, srcs)
	if err != nil {
		return nil, err
	}

	g, err := core.Build(core.Spec{
		L: spec.L, D: spec.D, DPrime: spec.DPrime,
		Relays: relays, Dest: spec.Dest, Sources: srcs,
		Recode:   !spec.NoRecode,
		Scramble: !spec.NoScramble,
		Rng:      rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		eps.Close()
		return nil, err
	}
	clk := nw.cfg.clock()
	snd := source.New(nw.chn, g, source.Config{Clock: clk}, rand.New(rand.NewSource(seed+1)))
	start := clk.Now()
	if err := snd.Establish(); err != nil {
		eps.Close()
		return nil, err
	}
	c := &Conn{
		nw: nw, sender: snd, graph: g, eps: eps,
		recv: make(chan []byte, 64),
		done: make(chan struct{}),
	}
	// Wait for the destination to decode its routing block: on its establish
	// signal, driving the clock under virtual time.
	destFlow := g.Flows[spec.Dest]
	if !relay.AwaitEstablished(clk, spec.EstablishTimeout, []*relay.Node{destNode}, []wire.FlowID{destFlow}) {
		eps.Close()
		return nil, fmt.Errorf("infoslicing: establish timeout; destination %d recorded %v", spec.Dest, destNode.FlowEvents(destFlow))
	}
	c.setupTime = clk.Now().Sub(start)

	if spec.Repair {
		// The source heartbeats as often as the relays expect their parents
		// to, or at the loop's own default with the control plane off.
		if err := snd.StartRepair(eps, source.RepairConfig{
			Heartbeat: nw.cfg.relayCfg.Heartbeat,
			Pick:      nw.pickReplacement,
		}); err != nil {
			eps.Close()
			return nil, err
		}
		// Loss-measuring transports (UDP) feed the repair loop a second
		// failure signal: persistent per-destination datagram loss beyond
		// the slicing redundancy budget (d'−d)/d' cannot be absorbed by
		// coding, so it is escalated exactly like a ParentDown report — the
		// flow splices around the lossy node rather than retransmitting.
		// Loss within the budget never fires (redundancy absorbs it).
		if lr, ok := nw.chn.(overlay.LossReporter); ok {
			threshold := float64(spec.DPrime-spec.D) / float64(spec.DPrime)
			if threshold < 0.02 {
				threshold = 0.02 // d'=d: any persistent loss is fatal, but debounce noise
			}
			c.unwatch = lr.AddLossWatcher(threshold, func(to NodeID, rate float64) {
				eps.InjectTransportDown(to)
			})
		}
	}

	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		c.stop()
		return nil, ErrClosed
	}
	flows := nw.routes[spec.Dest]
	if flows == nil {
		flows = make(map[wire.FlowID]*Conn)
		nw.routes[spec.Dest] = flows
		nw.demuxWG.Add(1)
		go nw.demux(destNode, flows)
	}
	flows[g.Flows[spec.Dest]] = c
	nw.mu.Unlock()
	return c, nil
}

// demux is the only reader of a destination relay's decoded messages: it
// hands each to the open Conn its flow belongs to and drops the rest, so
// Conns sharing a destination never take each other's messages. A Conn
// whose buffer is full holds up the others at its destination until it is
// read or closed. flows is guarded by nw.mu.
func (nw *Network) demux(n *relay.Node, flows map[wire.FlowID]*Conn) {
	defer nw.demuxWG.Done()
	for {
		select {
		case m := <-n.Received():
			nw.mu.Lock()
			c := flows[m.Flow]
			nw.mu.Unlock()
			if c == nil {
				continue
			}
			select {
			case c.recv <- m.Data:
			case <-c.done:
			}
		case <-nw.done:
			return
		}
	}
}

// Send transmits an anonymous, confidential message to the destination.
func (c *Conn) Send(msg []byte) error { return c.sender.Send(msg) }

// Received yields messages decoded and decrypted by the destination.
func (c *Conn) Received() <-chan []byte { return c.recv }

// Dest returns the destination relay's id (known only to the sender side).
func (c *Conn) Dest() NodeID { return c.graph.Dest }

// DestStage returns the 1-indexed stage the destination was hidden in.
func (c *Conn) DestStage() int { return c.graph.DestStage }

// SetupTime reports how long graph establishment took.
func (c *Conn) SetupTime() time.Duration { return c.setupTime }

// RepairStats reports the flow's live-repair counters (all zero unless the
// flow was dialed with Repair).
func (c *Conn) RepairStats() RepairStats {
	s := c.sender.Counters()
	return RepairStats{Reports: s.Get("repair_reports"), Splices: s.Get("repair_splices")}
}

// Close unregisters the flow from its destination's demultiplexer and
// detaches the transient source endpoints. Relay-side flow state expires
// via GC.
func (c *Conn) Close() { c.stop() }

func (c *Conn) stop() {
	c.stopOnce.Do(func() {
		c.nw.mu.Lock()
		delete(c.nw.routes[c.graph.Dest], c.graph.Flows[c.graph.Dest])
		c.nw.mu.Unlock()
		close(c.done)
		if c.unwatch != nil {
			c.unwatch()
		}
		c.sender.StopRepair()
		c.eps.Close()
	})
}
