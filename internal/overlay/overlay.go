// Package overlay provides the peer-to-peer substrate that information
// slicing runs over: node identities, transports that deliver packets
// between nodes, and network profiles that emulate LAN and PlanetLab
// conditions (§7).
//
// Two transports are provided. ChanNetwork is an in-process network with
// configurable per-node bandwidth, link latency, and loss — the workhorse
// for experiments, since one machine can host hundreds of relay goroutines.
// Static runs the byte protocol over real sockets — TCP streams or
// congestion-controlled UDP datagrams, over a pre-agreed address book
// spanning processes and hosts or collapsed onto loopback — as a thin shim
// over the production peer layer (internal/transport): per-host bounded
// queues, batched writers, reconnect with backoff, slab-based readers.
package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// ChanNetwork's counters, which back its TransportStats.
const cPackets, cBytes, cLost = 0, 1, 2

var chanVocab = metrics.NewVocab("packets", "bytes", "lost")

// Handler consumes a raw packet addressed to an attached node. The data
// buffer is private to the handler: the transport must hand each delivery
// its own allocation (or copy) and never touch it again. Handlers rely on
// this to retain zero-copy views into data across rounds (see DESIGN.md,
// buffer-ownership rules).
//
// Concurrency contract: transports MAY invoke one node's handler from many
// goroutines at once, in any order across packets (datagram semantics; the
// in-memory transport delivers every packet on its own goroutine). A
// handler must therefore be safe for concurrent use, and should return
// quickly — the relay daemon, for example, only classifies the packet and
// hands the buffer to a per-shard worker queue. Buffer ownership moves with
// the buffer: whichever goroutine the handler forwards it to becomes the
// owner.
// Handler is a type alias (not a defined type) so transports living below
// this package — simnet.SimNet, the deterministic virtual-time network —
// can satisfy Transport without importing it.
type Handler = func(from wire.NodeID, data []byte)

// TransportStats is the view of its counters every transport reports (it is
// wire.TransportStats, aliased so transports below this package can share
// it).
type TransportStats = wire.TransportStats

// Transport moves opaque datagrams between overlay nodes. This is the ONE
// transport contract in the codebase — the in-memory ChanNetwork, the
// virtual-time SimNet, the TCP and UDP socket transports, and every test
// fake all satisfy it (fakes embed TransportBase for the parts they don't
// care about). The former three-way split (core sends, failure injection,
// stats as separate ad-hoc interfaces) is gone.
type Transport interface {
	// Attach registers a node and its packet handler.
	Attach(id wire.NodeID, h Handler) error
	// Detach removes a node; subsequent sends to it are dropped.
	Detach(id wire.NodeID)
	// Send delivers data from one node to another, subject to the
	// transport's failure and shaping model. Errors are best-effort: a nil
	// return does not guarantee delivery (datagram semantics).
	//
	// Send must not retain data after it returns: implementations copy (or
	// write out) the bytes synchronously. Relays and sources rely on this
	// to reuse one framing buffer across rounds.
	//
	// Non-blocking send contract: Send must never block on a slow or dead
	// receiver. Real-network implementations hand the frame to a bounded
	// per-peer queue drained by a dedicated writer (internal/transport); a
	// full queue sheds the frame and returns the advisory ErrSendQueueFull,
	// which data-path callers count (the relay's send_drops) and nothing
	// retries — redundancy, not retransmission, is the protocol's answer.
	Send(from, to wire.NodeID, data []byte) error
	// Fail crashes a node (churn injection): it stops receiving and
	// sending but stays attached. Revive restores it; Down reports it.
	Fail(id wire.NodeID)
	Revive(id wire.NodeID)
	Down(id wire.NodeID) bool
	// Stats reports cumulative transport counters.
	Stats() TransportStats
	// Close stops the transport and releases its resources.
	Close()
}

// TransportBase is an embeddable no-op implementation of everything in
// Transport beyond Attach/Detach/Send — test fakes and minimal transports
// embed it and override what they model.
type TransportBase struct{}

func (TransportBase) Fail(wire.NodeID)      {}
func (TransportBase) Revive(wire.NodeID)    {}
func (TransportBase) Down(wire.NodeID) bool { return false }
func (TransportBase) Stats() TransportStats { return TransportStats{} }
func (TransportBase) Close()                {}

// CongestionAdvisor is optionally implemented by congestion-controlled
// transports (the UDP transport). SendDelay estimates how long a sender
// should hold its next burst of n bytes toward a node — zero when the
// path's window has room. Sources consult it to pace their round loop;
// it is advisory (the transport gates hard regardless).
type CongestionAdvisor interface {
	SendDelay(to wire.NodeID, bytes int) time.Duration
}

// LossReporter is optionally implemented by transports that measure
// per-destination wire loss (the UDP transport). AddLossWatcher registers
// f to be called — rate-limited, off the data path — whenever the smoothed
// loss rate toward a destination exceeds threshold; the returned func
// removes the watcher. The facade escalates persistent loss beyond the
// slicing redundancy budget to splice repair through this hook.
type LossReporter interface {
	AddLossWatcher(threshold float64, f func(to wire.NodeID, rate float64)) (remove func())
}

// OwnedSender is optionally implemented by transports that can take a
// burst of frames toward one destination by reference instead of copying
// each (Static hands the views straight to the peer writer's writev /
// datagram packer; ChanNetwork copies the burst in bulk; SimNet, which
// copies every packet into its event core anyway, leaves it out).
// The caller keeps bufs' backing memory alive until release fires; the
// transport calls release exactly once on EVERY path — flushed, shed at a
// full queue, dropped at a down node, or rejected outright — and after it
// returns no reference to the views survives. Like Send, SendOwned never
// blocks, and ErrSendQueueFull means the whole burst was shed as one
// transaction (per-destination batching is all-or-nothing).
type OwnedSender interface {
	SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error
}

// SendOwnedOrCopy sends a one-destination burst through the transport's
// owned path when it has one, else falls back to per-frame copying Sends
// and fires release itself — either way release is consumed exactly once.
// The fallback returns the first error it sees (data-path callers that
// must count shed frames exactly, like the relay's egress stage, inline
// the same split so they can attribute drops per frame).
func SendOwnedOrCopy(tr Transport, from, to wire.NodeID, bufs [][]byte, release func()) error {
	if os, ok := tr.(OwnedSender); ok {
		return os.SendOwned(from, to, bufs, release)
	}
	var err error
	for _, b := range bufs {
		if e := tr.Send(from, to, b); e != nil && err == nil {
			err = e
		}
	}
	release()
	return err
}

// Errors.
var (
	ErrDuplicateNode = errors.New("overlay: node already attached")
	ErrUnknownNode   = errors.New("overlay: unknown node")
	ErrNodeDown      = errors.New("overlay: node is down")
	// ErrSendQueueFull re-exports the peer layer's advisory drop error: the
	// frame was shed at a full per-peer queue. Callers on the data path
	// count it (the relay's send_drops); datagram semantics mean nothing
	// else changes.
	ErrSendQueueFull = transport.ErrQueueFull
)

// Profile shapes traffic to emulate a deployment environment.
type Profile struct {
	Name string

	// LatencyMin/Max bound the one-way link delay, drawn uniformly.
	LatencyMin, LatencyMax time.Duration

	// BandwidthBps caps each node's egress rate; 0 means unlimited.
	BandwidthBps int64

	// Loss is the independent per-packet drop probability.
	Loss float64

	// CPUDelayPerKB emulates busy relay hosts (the paper's overloaded
	// PlanetLab nodes): extra sender-side delay per KB processed.
	CPUDelayPerKB time.Duration
}

// LAN models the paper's 1 Gb/s switched local network of 2.8 GHz hosts
// (§7): negligible latency, high per-node bandwidth, no loss.
func LAN() Profile {
	return Profile{
		Name:         "lan",
		LatencyMin:   200 * time.Microsecond,
		LatencyMax:   500 * time.Microsecond,
		BandwidthBps: 1_000_000_000,
	}
}

// PlanetLab models the paper's wide-area testbed (§7): intercontinental
// RTTs, heavily loaded hosts, modest per-node bandwidth, occasional loss.
func PlanetLab() Profile {
	return Profile{
		Name:          "planetlab",
		LatencyMin:    30 * time.Millisecond,
		LatencyMax:    120 * time.Millisecond,
		BandwidthBps:  8_000_000,
		Loss:          0.005,
		CPUDelayPerKB: 40 * time.Microsecond,
	}
}

// Unshaped returns a profile with no artificial delays — raw in-memory
// speed, useful for unit tests and CPU-bound benchmarks.
func Unshaped() Profile { return Profile{Name: "unshaped"} }

// ChanNetwork is the in-memory transport.
type ChanNetwork struct {
	profile Profile

	mu    sync.RWMutex
	nodes map[wire.NodeID]*chanEndpoint
	rngMu sync.Mutex
	rng   *rand.Rand

	// Every Send records from its caller's goroutine; the striped block,
	// keyed by the sending node, keeps concurrent senders off each other's
	// cache lines (plain adjacent atomics false-share badly here).
	ctr *metrics.ShardedCounter // chanVocab

	closed atomic.Bool
	wg     sync.WaitGroup
}

type chanEndpoint struct {
	handler Handler
	down    atomic.Bool
	// failEpoch counts Fail events. Every queued delivery captures the
	// receiver's epoch at send time and is dropped if it differs at
	// delivery time: a crash loses everything already in flight toward the
	// host, even if the host comes back before the packets' arrival time.
	failEpoch atomic.Uint64
	// egressFree is the virtual time at which the node's uplink is free;
	// token-bucket-style serialization of sends.
	mu         sync.Mutex
	egressFree time.Time
}

// NewChanNetwork creates an in-memory network with the given profile. The
// rng drives latency jitter and loss; it is locked internally. A nil rng is
// seeded from the process base seed (simnet.BaseSeed) so a failing run can
// be replayed.
func NewChanNetwork(p Profile, rng *rand.Rand) *ChanNetwork {
	if rng == nil {
		rng = simnet.NewRand()
	}
	return &ChanNetwork{
		profile: p,
		nodes:   make(map[wire.NodeID]*chanEndpoint),
		rng:     rng,
		ctr:     metrics.NewShardedCounter(4*runtime.GOMAXPROCS(0), chanVocab),
	}
}

// Attach implements Transport.
func (n *ChanNetwork) Attach(id wire.NodeID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	n.nodes[id] = &chanEndpoint{handler: h}
	return nil
}

// Detach implements Transport.
func (n *ChanNetwork) Detach(id wire.NodeID) {
	n.mu.Lock()
	delete(n.nodes, id)
	n.mu.Unlock()
}

// Fail marks a node as crashed: it stops receiving and sending but stays
// attached (the churn model of §8 — hosts become unreachable, they do not
// deregister). Packets already queued toward the node — sent before the
// crash, still inside their emulated link delay — are dropped too, exactly
// as a real crash loses whatever is in flight toward the host; a subsequent
// Revive only restores packets sent after it.
func (n *ChanNetwork) Fail(id wire.NodeID) {
	n.mu.RLock()
	ep := n.nodes[id]
	n.mu.RUnlock()
	if ep != nil {
		ep.failEpoch.Add(1)
		ep.down.Store(true)
	}
}

// Revive brings a failed node back.
func (n *ChanNetwork) Revive(id wire.NodeID) {
	n.mu.RLock()
	ep := n.nodes[id]
	n.mu.RUnlock()
	if ep != nil {
		ep.down.Store(false)
	}
}

// Down reports whether the node is currently failed.
func (n *ChanNetwork) Down(id wire.NodeID) bool {
	n.mu.RLock()
	ep := n.nodes[id]
	n.mu.RUnlock()
	return ep == nil || ep.down.Load()
}

// Send implements Transport: the one-frame case of the burst path.
func (n *ChanNetwork) Send(from, to wire.NodeID, data []byte) error {
	one := [1][]byte{data}
	return n.send(from, to, one[:])
}

// SendOwned implements OwnedSender. Every path copies before returning, so
// release fires here.
func (n *ChanNetwork) SendOwned(from, to wire.NodeID, bufs [][]byte, release func()) error {
	defer release()
	return n.send(from, to, bufs)
}

// send delivers a burst of frames toward one node, on a separate goroutine
// after the shaped delay. On a shaped or lossy profile every frame gets its
// own delay and loss draw (ordering between sends from the same node is
// preserved by the egress serialization only when bandwidth shaping is on);
// unshaped, the whole burst is copied into one backing buffer and delivered
// in order on a single goroutine — one allocation and one scheduler
// hand-off where per-frame delivery pays one of each per frame. Handlers
// own their views outright (the backing buffer is never reused), exactly
// the Handler contract.
func (n *ChanNetwork) send(from, to wire.NodeID, bufs [][]byte) error {
	if n.closed.Load() {
		return nil
	}
	n.mu.RLock()
	src := n.nodes[from]
	dst := n.nodes[to]
	n.mu.RUnlock()
	if src == nil {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	if src.down.Load() {
		return fmt.Errorf("%w: %d", ErrNodeDown, from)
	}
	if dst == nil || dst.down.Load() {
		// Receiver unknown or crashed: silently dropped, like the real
		// network.
		n.ctr.Add(uint64(from), cLost, int64(len(bufs)))
		return nil
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	n.ctr.Add(uint64(from), cPackets, int64(len(bufs)))
	n.ctr.Add(uint64(from), cBytes, int64(total))
	// Every queued delivery carries the receiver's epoch at send time: a
	// crash loses everything already in flight toward the host.
	epoch := dst.failEpoch.Load()
	p := n.profile
	if p.BandwidthBps > 0 || p.LatencyMax > 0 || p.CPUDelayPerKB > 0 || p.Loss > 0 {
		for _, b := range bufs {
			delay := n.sendDelay(src, len(b))
			if n.dropPacket() {
				n.ctr.Add(uint64(from), cLost, 1)
				continue
			}
			n.deliver(dst, epoch, from, delay, append([]byte(nil), b...), nil)
		}
		return nil
	}
	back := make([]byte, 0, total)
	var rest [][]byte
	if len(bufs) > 1 {
		rest = make([][]byte, 0, len(bufs)-1)
	}
	for i, b := range bufs {
		off := len(back)
		back = append(back, b...)
		if i > 0 {
			rest = append(rest, back[off:len(back):len(back)])
		}
	}
	if len(bufs) > 0 {
		n.deliver(dst, epoch, from, 0, back[:len(bufs[0]):len(bufs[0])], rest)
	}
	return nil
}

// deliver hands first, then rest, to the receiver's handler after delay,
// stopping at the first frame that finds the receiver crashed since the
// send or the network closed. A singleton (the common case on sparse
// fan-outs) passes a nil rest: one payload copy and one hand-off, no batch
// bookkeeping.
func (n *ChanNetwork) deliver(dst *chanEndpoint, epoch uint64, from wire.NodeID, delay time.Duration, first []byte, rest [][]byte) {
	run := func() {
		defer n.wg.Done()
		for ok, i := n.hand(dst, epoch, from, first), 0; ok && i < len(rest); i++ {
			ok = n.hand(dst, epoch, from, rest[i])
		}
	}
	n.wg.Add(1)
	if delay == 0 {
		go run()
	} else {
		time.AfterFunc(delay, run)
	}
}

func (n *ChanNetwork) hand(dst *chanEndpoint, epoch uint64, from wire.NodeID, v []byte) bool {
	if dst.down.Load() || dst.failEpoch.Load() != epoch || n.closed.Load() {
		return false
	}
	dst.handler(from, v)
	return true
}

// sendDelay computes the shaped delay: serialization on the sender's uplink
// plus propagation latency plus CPU cost.
func (n *ChanNetwork) sendDelay(src *chanEndpoint, size int) time.Duration {
	p := n.profile
	var delay time.Duration
	if p.BandwidthBps > 0 {
		tx := time.Duration(float64(size) * 8 / float64(p.BandwidthBps) * float64(time.Second))
		src.mu.Lock()
		now := time.Now()
		start := src.egressFree
		if start.Before(now) {
			start = now
		}
		src.egressFree = start.Add(tx)
		delay += src.egressFree.Sub(now)
		src.mu.Unlock()
	}
	if p.LatencyMax > 0 {
		span := p.LatencyMax - p.LatencyMin
		var jitter time.Duration
		if span > 0 {
			n.rngMu.Lock()
			jitter = time.Duration(n.rng.Int63n(int64(span)))
			n.rngMu.Unlock()
		}
		delay += p.LatencyMin + jitter
	}
	if p.CPUDelayPerKB > 0 {
		delay += time.Duration(float64(p.CPUDelayPerKB) * float64(size) / 1024)
	}
	return delay
}

func (n *ChanNetwork) dropPacket() bool {
	if n.profile.Loss <= 0 {
		return false
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64() < n.profile.Loss
}

// Stats reports cumulative network counters.
func (n *ChanNetwork) Stats() TransportStats {
	c := n.ctr.Snapshot()
	return TransportStats{Packets: c.Get("packets"), Bytes: c.Get("bytes"), Lost: c.Get("lost")}
}

// Close stops delivering packets and waits for in-flight deliveries.
func (n *ChanNetwork) Close() {
	n.closed.Store(true)
	n.wg.Wait()
}
