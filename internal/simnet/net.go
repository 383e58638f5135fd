package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/wire"
)

// The network's counters: packets, bytes and lost back its TransportStats;
// trace_dropped reads the trace ring's count of discarded events.
const cPackets, cBytes, cLost, cTraceDropped = 0, 1, 2, 3

var simVocab = metrics.NewVocab("packets", "bytes", "lost", "trace_dropped")

// SimNet is the virtual-time overlay transport: the deterministic
// counterpart of overlay.ChanNetwork. It satisfies overlay.Transport (and
// the Failer side the churner uses) without importing the overlay package.
//
// Per-endpoint state lives in a chunked arena of nodeSlots addressed by
// dense indices (NodeIDs resolve through a flat []int32 for small ids, a map
// only for outliers), so a node costs a few tens of bytes and the send path
// takes no map lookup. Deliveries are closure-free: Send schedules a plain
// event record on the clock's queue and the clock hands it back via the
// netSink interface. Per-link shaping state (profile override, cut flag,
// RNG) is allocated lazily, only for links that are actually shaped.
//
// Determinism: every (from, to) link has a deterministic RNG stream seeded
// from (netSeed, from, to) — created on first draw — and deliveries
// scheduled for the same virtual instant fire in the canonical
// (from, to, sender-seq) order. The sender sequence is per source node;
// since each link has a single logical writer, per-link relative order is
// preserved and the delivery trace is a pure function of seed + scenario.
type SimNet struct {
	clk    *VirtualClock
	seed   int64
	def    LinkProfile
	sinkID uint8

	// Hot-path state, readable without n.mu (relay workers and other
	// goroutines send concurrently with the driver):
	chunks atomic.Pointer[[]*nodeChunk]
	idIdx  atomic.Pointer[[]int32]
	linksN atomic.Int32
	ctr    *metrics.ShardedCounter // simVocab, keyed by sender
	closed atomic.Bool

	traceOn atomic.Bool
	pooled  atomic.Bool
	// bufPool holds *payloadBuf. It is a pointer because the runtime's list
	// of pools, which drops a pool only at the next collection, would
	// otherwise keep the whole network (arena, trace ring) alive past its use.
	bufPool *sync.Pool

	mu     sync.Mutex
	nNodes int32
	idMap  map[wire.NodeID]int32 // ids too large for the flat index
	links  map[linkKey]*linkState
	trace  metrics.Ring[TraceEvent]
}

const (
	nodeChunkBits = 12
	nodeChunkSize = 1 << nodeChunkBits
	nodeChunkMask = nodeChunkSize - 1
	// NodeIDs below maxDirectID resolve through a flat array; larger ids
	// (synthetic per-flow source ids and the like) fall back to a map.
	maxDirectID = 1 << 21

	// DefaultTraceCap bounds EnableTrace's ring: old events are discarded
	// once the cap is reached (trace_dropped counts them). Large enough for
	// every scripted scenario, small enough that a long soak with tracing
	// on cannot OOM.
	DefaultTraceCap = 1 << 20
)

type nodeChunk [nodeChunkSize]nodeSlot

type handlerFunc = func(wire.NodeID, []byte)

// nodeSlot is one endpoint's arena cell. state packs
// attached(bit0) | down(bit1) | epoch(bits 2+) into one word so senders
// read liveness with a single atomic load; writes happen on the control
// plane under n.mu.
type nodeSlot struct {
	id    wire.NodeID
	state atomic.Uint64
	h     atomic.Pointer[handlerFunc]
	seq   atomic.Uint64 // canonical per-sender sequence
	// busyUntil is the virtual time (ns) at which the node's uplink frees:
	// packets on rate-limited links leave one at a time behind it.
	busyUntil atomic.Int64
}

const (
	slotAttached = 1 << 0
	slotDown     = 1 << 1
	slotEpochLSB = 2
)

// payloadBuf is a pooled payload backing buffer (pooled mode only).
type payloadBuf struct{ b []byte }

// LinkProfile shapes one directed link.
type LinkProfile struct {
	// Delay is the base one-way delivery delay.
	Delay time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the independent per-packet drop probability.
	Loss float64
	// Duplicate is the probability a packet is delivered twice (the copy
	// arrives one Delay later).
	Duplicate float64
	// Reorder is the probability a packet is held an extra ReorderDelay,
	// letting later traffic on the link overtake it.
	Reorder      float64
	ReorderDelay time.Duration
	// Rate is the sender's egress rate on this link in bits per second;
	// zero means unlimited. A node transmits one packet at a time, so a
	// packet first waits behind the sender's earlier packets (on any link),
	// then takes size·8/Rate to leave, and only then starts its Delay.
	Rate int64
}

func (p LinkProfile) needsRand() bool {
	return p.Loss > 0 || p.Jitter > 0 || p.Reorder > 0 || p.Duplicate > 0
}

type linkKey struct{ from, to wire.NodeID }

type linkState struct {
	prof    LinkProfile
	hasProf bool
	cut     bool
	rng     *rand.Rand // lazily created on first randomness draw
}

// TraceEvent is one packet delivery as observed at the receiving node:
// virtual time since the start of the simulation, the link it traveled, and
// the wire message type.
type TraceEvent struct {
	At       time.Duration
	From, To wire.NodeID
	Type     wire.MsgType
}

// Errors (mirroring the overlay transport's semantics).
var (
	ErrDuplicateNode = errors.New("simnet: node already attached")
	ErrUnknownNode   = errors.New("simnet: unknown node")
	ErrNodeDown      = errors.New("simnet: node is down")
)

// NewSimNet creates a virtual-time network on clk. All links start with the
// default profile def; per-link overrides come later via SetLink. The seed
// fixes every loss/jitter/duplicate draw of the run.
//
// Delivery tracing starts disabled: its ring costs DefaultTraceCap events
// of memory, and a long-lived network (the facade's VirtualSpec mode, soak
// experiments) would only keep the last of them. Scenario tooling that
// wants the replayable trace turns it on with EnableTrace; NewScript does
// so for every scripted scenario.
func NewSimNet(clk *VirtualClock, seed int64, def LinkProfile) *SimNet {
	n := &SimNet{
		clk:     clk,
		seed:    seed,
		def:     def,
		idMap:   make(map[wire.NodeID]int32),
		links:   make(map[linkKey]*linkState),
		ctr:     metrics.NewShardedCounter(8, simVocab),
		bufPool: new(sync.Pool),
	}
	empty := make([]int32, 0)
	n.idIdx.Store(&empty)
	chunks := make([]*nodeChunk, 0)
	n.chunks.Store(&chunks)
	n.sinkID = clk.registerSink(n)
	return n
}

// EnableTrace starts recording a TraceEvent per delivery, in canonical
// delivery order, into a metrics.Ring of DefaultTraceCap events: past the
// cap the oldest are discarded, and trace_dropped counts them. A second
// call keeps what the ring holds.
func (n *SimNet) EnableTrace() {
	n.mu.Lock()
	if !n.traceOn.Load() {
		n.trace = metrics.NewRing[TraceEvent](DefaultTraceCap)
		n.traceOn.Store(true)
	}
	n.mu.Unlock()
}

// SetPooledPayloads turns on payload buffer pooling: delivered buffers are
// recycled as soon as the handler returns. Only valid when every attached
// handler finishes with its buffer before returning (the overlay.Handler
// contract normally grants the handler ownership beyond the call — relay
// shard queues retain buffers — so pooling is opt-in for harnesses whose
// handlers are known not to retain, e.g. the measured anonymity sweep).
func (n *SimNet) SetPooledPayloads(on bool) { n.pooled.Store(on) }

// lookup resolves a NodeID to its dense index (-1 if never seen). Safe
// without n.mu for the flat-index path.
func (n *SimNet) lookup(id wire.NodeID) int32 {
	if uint64(id) < maxDirectID {
		arr := *n.idIdx.Load()
		if int(id) < len(arr) {
			return arr[id]
		}
		return -1
	}
	n.mu.Lock()
	ix, ok := n.idMap[id]
	n.mu.Unlock()
	if !ok {
		return -1
	}
	return ix
}

func (n *SimNet) slotAt(idx int32) *nodeSlot {
	chunks := *n.chunks.Load()
	return &chunks[idx>>nodeChunkBits][idx&nodeChunkMask]
}

// idxLocked resolves (optionally creating) the dense index for id.
func (n *SimNet) idxLocked(id wire.NodeID, create bool) int32 {
	if uint64(id) < maxDirectID {
		arr := *n.idIdx.Load()
		if int(id) < len(arr) {
			if ix := arr[id]; ix >= 0 || !create {
				return ix
			}
			ix := n.allocSlotLocked(id)
			arr[id] = ix
			return ix
		}
		if !create {
			return -1
		}
		grow := 2 * len(arr)
		if grow < int(id)+1 {
			grow = int(id) + 1
		}
		if grow < 1024 {
			grow = 1024
		}
		na := make([]int32, grow)
		copy(na, arr)
		for i := len(arr); i < grow; i++ {
			na[i] = -1
		}
		ix := n.allocSlotLocked(id)
		na[id] = ix
		n.idIdx.Store(&na)
		return ix
	}
	ix, ok := n.idMap[id]
	if ok || !create {
		if !ok {
			return -1
		}
		return ix
	}
	ix = n.allocSlotLocked(id)
	n.idMap[id] = ix
	return ix
}

func (n *SimNet) allocSlotLocked(id wire.NodeID) int32 {
	idx := n.nNodes
	n.nNodes++
	chunks := *n.chunks.Load()
	if int(idx)>>nodeChunkBits >= len(chunks) {
		nc := make([]*nodeChunk, len(chunks)+1)
		copy(nc, chunks)
		nc[len(chunks)] = new(nodeChunk)
		n.chunks.Store(&nc)
		chunks = nc
	}
	s := &chunks[idx>>nodeChunkBits][idx&nodeChunkMask]
	s.id = id
	return idx
}

// Attach implements overlay.Transport.
func (n *SimNet) Attach(id wire.NodeID, h func(wire.NodeID, []byte)) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	idx := n.idxLocked(id, true)
	s := n.slotAt(idx)
	st := s.state.Load()
	if st&slotAttached != 0 {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	hf := handlerFunc(h)
	s.h.Store(&hf)
	// Keep the epoch: packets in flight toward a previous incarnation of
	// this id stay dead (they captured the old epoch at send time).
	s.state.Store(st>>slotEpochLSB<<slotEpochLSB | slotAttached)
	return nil
}

// Detach implements overlay.Transport. In-flight packets toward the node
// are dropped (the epoch advances), matching the map-removal semantics of
// the previous implementation.
func (n *SimNet) Detach(id wire.NodeID) {
	n.mu.Lock()
	if idx := n.idxLocked(id, false); idx >= 0 {
		s := n.slotAt(idx)
		st := s.state.Load()
		s.state.Store((st>>slotEpochLSB + 1) << slotEpochLSB)
		s.h.Store(nil)
	}
	n.mu.Unlock()
}

// Fail crashes a node: it stops receiving and sending but stays attached,
// and packets already in flight toward it are dropped (same epoch semantics
// as overlay.ChanNetwork.Fail).
func (n *SimNet) Fail(id wire.NodeID) {
	n.mu.Lock()
	if idx := n.idxLocked(id, false); idx >= 0 {
		s := n.slotAt(idx)
		st := s.state.Load()
		if st&slotAttached != 0 {
			s.state.Store((st>>slotEpochLSB+1)<<slotEpochLSB | slotAttached | slotDown)
		}
	}
	n.mu.Unlock()
}

// Revive brings a failed node back; only packets sent after the revival are
// delivered.
func (n *SimNet) Revive(id wire.NodeID) {
	n.mu.Lock()
	if idx := n.idxLocked(id, false); idx >= 0 {
		s := n.slotAt(idx)
		s.state.Store(s.state.Load() &^ slotDown)
	}
	n.mu.Unlock()
}

// Down reports whether the node is currently failed (or unknown).
func (n *SimNet) Down(id wire.NodeID) bool {
	idx := n.lookup(id)
	if idx < 0 {
		return true
	}
	st := n.slotAt(idx).state.Load()
	return st&slotAttached == 0 || st&slotDown != 0
}

// SetLink overrides the profile of the directed link from→to.
func (n *SimNet) SetLink(from, to wire.NodeID, p LinkProfile) {
	n.mu.Lock()
	ls := n.linkLocked(from, to)
	ls.prof, ls.hasProf = p, true
	n.mu.Unlock()
}

// SetLinkBoth overrides both directions between a and b.
func (n *SimNet) SetLinkBoth(a, b wire.NodeID, p LinkProfile) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// Cut severs the directed link from→to (all packets dropped); Heal restores
// it. Partition cuts every link between the two sets, both directions.
func (n *SimNet) Cut(from, to wire.NodeID) {
	n.mu.Lock()
	n.linkLocked(from, to).cut = true
	n.mu.Unlock()
}

// Heal restores a severed directed link.
func (n *SimNet) Heal(from, to wire.NodeID) {
	n.mu.Lock()
	n.linkLocked(from, to).cut = false
	n.mu.Unlock()
}

// Partition severs every link between set a and set b, in both directions.
func (n *SimNet) Partition(a, b []wire.NodeID) { n.setPartition(a, b, true) }

// HealPartition restores every link between set a and set b.
func (n *SimNet) HealPartition(a, b []wire.NodeID) { n.setPartition(a, b, false) }

func (n *SimNet) setPartition(a, b []wire.NodeID, cut bool) {
	n.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			n.linkLocked(x, y).cut = cut
			n.linkLocked(y, x).cut = cut
		}
	}
	n.mu.Unlock()
}

// linkLocked returns (creating if needed) the state of the directed link.
func (n *SimNet) linkLocked(from, to wire.NodeID) *linkState {
	k := linkKey{from, to}
	ls := n.links[k]
	if ls == nil {
		ls = &linkState{}
		n.links[k] = ls
		n.linksN.Add(1)
	}
	return ls
}

// rngLocked returns the link's RNG stream, creating it on first use. The
// stream is a pure function of (netSeed, from, to) — creation time does
// not matter — so links that never draw randomness never pay for one.
func (n *SimNet) rngLocked(ls *linkState, from, to wire.NodeID) *rand.Rand {
	if ls.rng == nil {
		ls.rng = rand.New(rand.NewSource(n.seed ^ int64(splitmix64(uint64(from)*0x1f123bb5+uint64(to)*0x5bd1e995))))
	}
	return ls.rng
}

// Send implements overlay.Transport: the packet is copied and scheduled for
// delivery after the link's shaped delay, on the virtual clock. When no
// per-link shaping state exists and the profile draws no randomness the
// path is lock-free (atomics only) and, in pooled mode, allocation-free.
func (n *SimNet) Send(from, to wire.NodeID, data []byte) error {
	if n.closed.Load() {
		return nil
	}
	fi := n.lookup(from)
	if fi < 0 {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	src := n.slotAt(fi)
	sst := src.state.Load()
	if sst&slotAttached == 0 {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	if sst&slotDown != 0 {
		return fmt.Errorf("%w: %d", ErrNodeDown, from)
	}

	ti := n.lookup(to)
	var dst *nodeSlot
	var dstState uint64
	if ti >= 0 {
		dst = n.slotAt(ti)
		dstState = dst.state.Load()
	}

	prof := n.def
	cut := false
	var ls *linkState
	if n.linksN.Load() > 0 {
		n.mu.Lock()
		ls = n.links[linkKey{from, to}]
		if ls != nil {
			if ls.hasProf {
				prof = ls.prof
			}
			cut = ls.cut
		}
		n.mu.Unlock()
	}
	if dst == nil || dstState&slotAttached == 0 || dstState&slotDown != 0 || cut {
		n.ctr.Add(uint64(from), cLost, 1)
		return nil
	}
	n.ctr.Add(uint64(from), cPackets, 1)
	n.ctr.Add(uint64(from), cBytes, int64(len(data)))

	delay := prof.Delay
	if prof.Rate > 0 {
		delay += n.egress(src, len(data), prof.Rate)
	}
	dup := false
	if prof.needsRand() {
		// Shaped link: randomness draws run under n.mu in the exact order
		// the previous implementation used (loss, jitter, reorder, dup),
		// on the same per-link stream, so traces replay bit-identically.
		n.mu.Lock()
		if ls == nil {
			ls = n.linkLocked(from, to)
		}
		rng := n.rngLocked(ls, from, to)
		if prof.Loss > 0 && rng.Float64() < prof.Loss {
			n.mu.Unlock()
			n.ctr.Add(uint64(from), cLost, 1)
			return nil
		}
		if prof.Jitter > 0 {
			delay += time.Duration(rng.Int63n(int64(prof.Jitter)))
		}
		if prof.Reorder > 0 && rng.Float64() < prof.Reorder {
			delay += prof.ReorderDelay
		}
		dup = prof.Duplicate > 0 && rng.Float64() < prof.Duplicate
		n.mu.Unlock()
	}

	epoch := dstState >> slotEpochLSB
	seq := src.seq.Add(1) - 1
	payload, pbuf := n.copyPayload(data)
	n.clk.scheduleNet(n.sinkID, delay, uint64(from), uint64(to), seq, ti, epoch, payload, pbuf)
	if dup {
		// The duplicate gets its own copy: each delivery's handler owns its
		// buffer outright (overlay.Handler contract), so two deliveries must
		// never alias one backing array.
		dupSeq := src.seq.Add(1) - 1
		dupPayload, dupBuf := n.copyPayload(data)
		n.clk.scheduleNet(n.sinkID, delay+prof.Delay, uint64(from), uint64(to), dupSeq, ti, epoch, dupPayload, dupBuf)
	}
	return nil
}

// egress queues size bytes on src's uplink at rate bits/s and returns how
// long the packet takes to leave, counting the wait behind earlier packets.
func (n *SimNet) egress(src *nodeSlot, size int, rate int64) time.Duration {
	now := n.clk.nowA.Load()
	tx := int64(size) * 8 * int64(time.Second) / rate
	for {
		busy := src.busyUntil.Load()
		done := max(busy, now) + tx
		if src.busyUntil.CompareAndSwap(busy, done) {
			return time.Duration(done - now)
		}
	}
}

func (n *SimNet) copyPayload(data []byte) ([]byte, *payloadBuf) {
	if !n.pooled.Load() {
		return append([]byte(nil), data...), nil
	}
	pb, _ := n.bufPool.Get().(*payloadBuf)
	if pb == nil {
		pb = &payloadBuf{}
	}
	if cap(pb.b) < len(data) {
		pb.b = make([]byte, len(data))
	}
	b := pb.b[:len(data)]
	copy(b, data)
	return b, pb
}

func (n *SimNet) recycle(pb *payloadBuf) {
	if pb != nil {
		n.bufPool.Put(pb)
	}
}

// netDeliver implements netSink: the closure-free delivery path.
func (n *SimNet) netDeliver(from, to uint64, dstIdx int32, epoch uint64, payload []byte, pbuf *payloadBuf) {
	s := n.slotAt(dstIdx)
	st := s.state.Load()
	if n.closed.Load() || st&slotAttached == 0 || st&slotDown != 0 || st>>slotEpochLSB != epoch {
		n.ctr.Add(from, cLost, 1)
		n.recycle(pbuf)
		return
	}
	hp := s.h.Load()
	if hp == nil {
		n.ctr.Add(from, cLost, 1)
		n.recycle(pbuf)
		return
	}
	if n.traceOn.Load() {
		var typ wire.MsgType
		if len(payload) > 0 {
			typ = wire.MsgType(payload[0])
		}
		n.mu.Lock()
		n.trace.Push(TraceEvent{At: n.clk.Elapsed(), From: wire.NodeID(from), To: wire.NodeID(to), Type: typ})
		n.mu.Unlock()
	}
	(*hp)(wire.NodeID(from), payload)
	n.recycle(pbuf)
}

// Counters reads the network's counters.
func (n *SimNet) Counters() metrics.Snapshot {
	s := n.ctr.Snapshot()
	n.mu.Lock()
	s.Values[cTraceDropped] = n.trace.Dropped()
	n.mu.Unlock()
	return s
}

// Stats is the Transport view of Counters.
func (n *SimNet) Stats() wire.TransportStats {
	c := n.Counters()
	return wire.TransportStats{Packets: c.Get("packets"), Bytes: c.Get("bytes"), Lost: c.Get("lost")}
}

// Close stops all future deliveries.
func (n *SimNet) Close() {
	n.closed.Store(true)
}

// Trace snapshots the delivery trace so far (oldest retained event first);
// it is empty unless EnableTrace was called.
func (n *SimNet) Trace() []TraceEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Collect(n.trace.All())
}

// TraceString renders the delivery trace one event per line —
// "elapsed from->to type" — the byte-identical artifact the determinism
// gate compares across same-seed runs.
func (n *SimNet) TraceString() string {
	var b strings.Builder
	for _, e := range n.Trace() {
		fmt.Fprintf(&b, "%d %d->%d %d\n", e.At.Nanoseconds(), e.From, e.To, e.Type)
	}
	return b.String()
}
