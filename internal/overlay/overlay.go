// Package overlay provides the peer-to-peer substrate that information
// slicing runs over: node identities and the transports that deliver packets
// between nodes.
//
// Two transports are provided. ChanNetwork is an unshaped in-process network
// — one machine hosts hundreds of relay goroutines — for tests, examples and
// the facade's default; shaped links (latency, loss, egress rate) are
// simnet's, on virtual time. Static runs the byte protocol over real sockets
// — TCP streams or congestion-controlled UDP datagrams, over a pre-agreed
// address book spanning processes and hosts or collapsed onto loopback — as
// a thin shim over the production peer layer (internal/transport): per-host
// bounded queues, batched writers, reconnect with backoff, slab-based
// readers.
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
// The fallback returns the first error it sees; the relay's egress, which
// sends every batch through here, counts a queue-full burst as shed whole,
// and no copying transport in this module sheds part of one.
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

// Profile is an empty placeholder kept, with Unshaped and NewChanNetwork's
// two-argument signature, only because the frozen benchmark module calls
// NewChanNetwork(Unshaped(), rng). ChanNetwork shapes nothing: every shaped
// link (delay, jitter, loss, egress rate) is simnet.LinkProfile's.
type Profile struct{}

// Unshaped returns the empty Profile (see Profile).
func Unshaped() Profile { return Profile{} }

// ChanNetwork is the in-memory transport: unshaped, wall-clock delivery
// between nodes of one process.
type ChanNetwork struct {
	// mu guards nodes and orders Close against in-flight sends: a send
	// checks closed and registers its delivery on wg under the read lock,
	// and Close sets closed under the write lock before it waits.
	mu     sync.RWMutex
	nodes  map[wire.NodeID]*chanEndpoint
	closed atomic.Bool
	wg     sync.WaitGroup

	// Every Send records from its caller's goroutine; the striped block,
	// keyed by the sending node, keeps concurrent senders off each other's
	// cache lines (plain adjacent atomics false-share badly here).
	ctr *metrics.ShardedCounter // chanVocab
}

type chanEndpoint struct {
	handler Handler
	down    atomic.Bool
	// failEpoch counts Fail events. Every delivery captures the receiver's
	// epoch at send time and stops if it differs at hand-off time: a crash
	// loses everything already in flight toward the host, even if the host
	// comes back before the packets are handed over.
	failEpoch atomic.Uint64
}

// NewChanNetwork creates an in-memory network. Both arguments are ignored
// (see Profile).
func NewChanNetwork(Profile, *rand.Rand) *ChanNetwork {
	return &ChanNetwork{
		nodes: make(map[wire.NodeID]*chanEndpoint),
		ctr:   metrics.NewShardedCounter(4*runtime.GOMAXPROCS(0), chanVocab),
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
// deregister). Frames sent before the crash and not yet handed over are
// dropped too, exactly as a real crash loses whatever is in flight toward
// the host; a subsequent Revive only restores packets sent after it.
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

// send delivers a burst of frames toward one node on a separate goroutine:
// the whole burst is copied into one backing buffer and handed over in
// order — one allocation and one scheduler hand-off where per-frame
// delivery pays one of each per frame. Handlers own their views outright
// (the backing buffer is never reused), exactly the Handler contract.
func (n *ChanNetwork) send(from, to wire.NodeID, bufs [][]byte) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed.Load() {
		return nil
	}
	src := n.nodes[from]
	dst := n.nodes[to]
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
	if len(bufs) == 0 {
		return nil
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	n.ctr.Add(uint64(from), cPackets, int64(len(bufs)))
	n.ctr.Add(uint64(from), cBytes, int64(total))
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
	first := back[:len(bufs[0]):len(bufs[0])]
	// The delivery carries the receiver's epoch at send time: a crash loses
	// everything still in flight toward the host. It joins wg under the
	// read lock, so it is either refused above or waited for by Close.
	epoch := dst.failEpoch.Load()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for ok, i := n.hand(dst, epoch, from, first), 0; ok && i < len(rest); i++ {
			ok = n.hand(dst, epoch, from, rest[i])
		}
	}()
	return nil
}

// hand passes one frame to the receiver's handler unless the receiver
// crashed since the send or the network closed.
func (n *ChanNetwork) hand(dst *chanEndpoint, epoch uint64, from wire.NodeID, v []byte) bool {
	if dst.down.Load() || dst.failEpoch.Load() != epoch || n.closed.Load() {
		return false
	}
	dst.handler(from, v)
	return true
}

// Stats reports cumulative network counters.
func (n *ChanNetwork) Stats() TransportStats {
	c := n.ctr.Snapshot()
	return TransportStats{Packets: c.Get("packets"), Bytes: c.Get("bytes"), Lost: c.Get("lost")}
}

// Close stops delivering packets and waits for in-flight deliveries.
func (n *ChanNetwork) Close() {
	n.mu.Lock()
	n.closed.Store(true)
	n.mu.Unlock()
	n.wg.Wait()
}
