package overlay

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// datagram is the UDP flavour of a Static: the congestion-controlled
// datagram peer layer (internal/transport UDPPeer/UDPAcceptor: per-host
// bounded queues, sendmmsg-batched writers paced by a CUBIC window over the
// transport's ack/echo channel, recvmmsg-batched readers). Framing inside
// each datagram matches the TCP stream byte-for-byte; a frame never splits
// across datagrams.
//
// Loss is handled by the slicing protocol, not the transport: a lost
// datagram is never retransmitted. What the flavour contributes is
// MEASUREMENT — per-destination smoothed loss rates from the ack channel —
// surfaced through AddLossWatcher so the facade can escalate persistent
// loss beyond the redundancy budget to splice repair.
type datagram struct {
	ucfg transport.UDPConfig // RxDrop set ⇔ the injected-loss shim is active

	watchMu  sync.Mutex
	watchSeq int
	watchers map[int]lossWatcher
}

type lossWatcher struct {
	threshold float64
	f         func(to wire.NodeID, rate float64)
}

// UDPOptions tunes the UDP flavour beyond the address book.
type UDPOptions struct {
	// Loss injects an independent drop probability on every endpoint's
	// inbound datagrams (data and acks): a socket-level netem shim for
	// loss experiments. Zero means no injected loss.
	Loss float64
	// Seed seeds the injected-loss RNG (0: derived from the process base
	// seed via simnet, so failing runs replay).
	Seed int64
	// Config overrides the datagram peer/acceptor tuning; zero values keep
	// the defaults. RxDrop and OnLoss are owned by the transport and
	// ignored here.
	Config transport.UDPConfig
}

// NewStaticUDP creates a UDP transport over the given id→address book.
func NewStaticUDP(book map[wire.NodeID]string, opts UDPOptions) *Static {
	d := &datagram{ucfg: opts.Config, watchers: make(map[int]lossWatcher)}
	d.ucfg.RxDrop = nil
	d.ucfg.OnLoss = nil
	if opts.Loss > 0 {
		seed := opts.Seed
		if seed == 0 {
			seed = simnet.NextSeed()
		}
		var rngMu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		loss := opts.Loss
		d.ucfg.RxDrop = func() bool {
			rngMu.Lock()
			drop := rng.Float64() < loss
			rngMu.Unlock()
			return drop
		}
	}
	return newStatic(book, d)
}

// NewUDPNetwork runs the overlay over real loopback UDP sockets: an empty
// address book where every node binds an ephemeral port on Attach — the
// datagram twin of NewTCPNetwork.
func NewUDPNetwork(opts UDPOptions) *Static {
	s := NewStaticUDP(nil, opts)
	s.loopback = true
	return s
}

func (d *datagram) listen(addr string, deliver transport.Deliver, ctr *metrics.ShardedCounter) (endpoint, error) {
	la, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, err
	}
	return transport.NewUDPAcceptor(conn, transport.DefaultMaxFrame, d.ucfg, deliver, ctr), nil
}

func (d *datagram) newPeer(to wire.NodeID, resolve func() (string, bool), ctr *metrics.ShardedCounter) transport.Link {
	cfg := transport.Config{}
	if d.ucfg.RxDrop != nil {
		// The shim rolls the Bernoulli die once per datagram, so run one
		// frame per datagram while it is active: that makes the injected
		// loss independent per slice, matching a WAN where distinct
		// senders' slices arrive in distinct datagrams. With normal
		// batching a multi-attach loopback run would coalesce several
		// senders' slices of the same round into one datagram and a single
		// drop could erase more redundancy than the d'−d budget is sized
		// for. Lossless runs keep full batching.
		cfg.MaxBatch = 1
	}
	ucfg := d.ucfg
	ucfg.OnLoss = func(rate float64) { d.reportLoss(to, rate) }
	return transport.NewUDPPeer(resolve, cfg, ucfg, ctr)
}

func (d *datagram) reportLoss(to wire.NodeID, rate float64) {
	d.watchMu.Lock()
	var fire []func(to wire.NodeID, rate float64)
	for _, w := range d.watchers {
		if rate > w.threshold {
			fire = append(fire, w.f)
		}
	}
	d.watchMu.Unlock()
	for _, f := range fire {
		f(to, rate)
	}
}

// AddLossWatcher implements LossReporter: f fires (rate-limited by the
// peer layer, off the data path) whenever the smoothed datagram loss rate
// toward some destination exceeds threshold. The returned func removes the
// watcher. The stream flavour measures no wire loss, so there f never
// fires.
func (s *Static) AddLossWatcher(threshold float64, f func(to wire.NodeID, rate float64)) (remove func()) {
	d, ok := s.link.(*datagram)
	if !ok {
		return func() {}
	}
	d.watchMu.Lock()
	d.watchSeq++
	id := d.watchSeq
	d.watchers[id] = lossWatcher{threshold: threshold, f: f}
	d.watchMu.Unlock()
	return func() {
		d.watchMu.Lock()
		delete(d.watchers, id)
		d.watchMu.Unlock()
	}
}

// SendDelay implements CongestionAdvisor: the destination peer's estimate
// of how long to hold the next burst (zero when its window has room, the
// peer does not exist yet, or the link is a stream, whose backpressure is
// TCP's own).
func (s *Static) SendDelay(to wire.NodeID, bytes int) time.Duration {
	p, _ := s.peers.Lookup(to).(*transport.UDPPeer)
	if p == nil {
		return 0
	}
	return p.SendDelay(bytes)
}

// UDPStats returns the benchmark's view of the datagram counters and the
// live peers' paths. All zero on the stream flavour.
func (s *Static) UDPStats() transport.UDPPeerStats {
	c := s.Counters()
	srtt, win := s.peers.UDPPaths()
	return transport.UDPPeerStats{DatagramsOut: c.Get("datagrams_out"), DatagramsLost: c.Get("datagrams_lost"), SRTT: srtt, Window: win}
}
