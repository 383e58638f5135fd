// Package relay implements the overlay daemon that every participating node
// runs (§7.1): a flow table keyed on the clear-text flow-id, slice
// collection and decoding of the node's own routing block, forwarding along
// the slice-map and data-map, network-coding regeneration of lost redundancy
// (§4.4.1), and garbage collection of stale flows.
//
// A relay learns nothing about a flow beyond its own PerNodeInfo and the
// addresses of the previous hops it hears from — the paper's anonymity
// invariant. In particular it never learns its stage, the source, or
// (unless it is the destination) the fact that some node is the
// destination.
//
// # Sharded multi-core data path
//
// A node carrying many flows must not funnel them through one lock. The
// flow table is striped into 2^k shards by a hash of the clear-text
// flow-id; every flow lives its whole life on one shard. Each shard owns a
// bounded inbound queue drained in bursts by a dedicated worker goroutine
// (one lock acquisition and shutdown check per burst), its own
// flow map, its own reused framing and regeneration scratch, its own
// deterministic RNG, and its own activity counters, so packets of
// unrelated flows touch no shared mutable state. The transport handler
// only classifies the datagram and enqueues it; all parsing and
// forwarding happens on the shard worker. The shard mutex exists solely so
// the per-flow timers (setup wait, round wait) and the stats/GC sweeps can
// interleave safely with the worker — the steady-state data path is a
// single writer per shard and never contends.
//
// # Multi-tenant flow table
//
// Two lock-free structures front the table for a long-running daemon on an
// open overlay. A per-shard cuckoo filter (cuckoo.go) rejects
// flow-addressed traffic for non-resident flows on the transport
// goroutine, so unknown flows, garbage, and post-eviction stragglers never
// take a shard lock; and a child→shard directory (table.go) routes
// sender-addressed acks and ParentDown reports to exactly the shards
// holding a matching flow instead of fanning out to all of them.
// Admission is metered globally (MaxFlows) and, optionally, per tenant —
// the previous-hop node that created the flow (TenantQuota) — and idle
// flows age out via an intrusive LRU list walked incrementally by the GC
// tick, so eviction work is proportional to what expired, not to the
// table size. See DESIGN.md, "Multi-tenant flow table".
package relay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// Config tunes relay timers and sharding. The zero value is usable: missing
// fields take the defaults below.
type Config struct {
	// SetupWait bounds how long a relay waits for missing setup packets
	// after it first hears of a flow before forwarding with what it has.
	SetupWait time.Duration
	// RoundWait bounds how long a relay waits for a data round to complete
	// before forwarding (and, if possible, regenerating) what it has.
	RoundWait time.Duration
	// GapWait bounds how long a receiver's reassembly stream stalls on a
	// missing round while later rounds are already decoded. When it expires
	// the hole is written off — the transport never retransmits, so a round
	// that lost more than d'−d slices at some stage is gone for good — and
	// delivery resumes at the next decoded round. Defaults to 2×RoundWait.
	GapWait time.Duration
	// FlowTTL evicts flows with no traffic for this long.
	FlowTTL time.Duration
	// GCInterval is how often the flow table is swept.
	GCInterval time.Duration
	// MaxFlows bounds the flow table across all shards (denial-of-service
	// guard, §9.2).
	MaxFlows int
	// TenantQuota bounds how many flows any single tenant — the
	// previous-hop node that creates a flow, the deepest identity a relay
	// is allowed to see — may hold at once. Zero (the default) disables
	// per-tenant metering and leaves only the global MaxFlows bound, the
	// pre-multi-tenant behavior. With a quota set, one peer at its cap
	// cannot starve admission for everyone else (Stats.FlowsRejected
	// counts its rejected creations).
	TenantQuota int
	// Shards is the number of flow-table stripes, each with its own worker
	// pipeline; it is rounded up to a power of two. Defaults to GOMAXPROCS
	// (rounded up, capped at 64).
	Shards int
	// QueueDepth bounds each shard's inbound packet queue; packets arriving
	// at a full queue are dropped (datagram semantics) and counted in
	// Stats.QueueDrops. Default 1024.
	QueueDepth int
	// Burst bounds how many queued packets a shard worker drains per wakeup.
	// Headers for the whole burst are parsed before any flow state is
	// touched; then the shard lock is taken once, the shutdown check runs
	// once, and the packets' clock holds are released together after the
	// lock drops — amortizing per-packet overhead the way writev batching
	// does for the peer writer. Default 64.
	Burst int
	// Heartbeat enables the live-churn control plane: every established
	// flow sends a per-flow keepalive to each child at this interval, and
	// the same ticker drives parent-liveness checks. Zero (the default)
	// disables the control plane entirely — the node behaves exactly like
	// the passive, redundancy-only relay.
	Heartbeat time.Duration
	// LivenessTimeout is how long a parent may stay silent (no data, no
	// heartbeat) before the relay presumes it dead and emits a ParentDown
	// report toward the source. Defaults to 4×Heartbeat when heartbeats are
	// enabled. Detection only *reports*; it never changes how rounds are
	// forwarded, so the data path is identical with the control plane on
	// or off.
	LivenessTimeout time.Duration
	// Rng seeds the per-shard RNGs that drive padding and recombination;
	// defaults to one derived from the process base seed (simnet.BaseSeed),
	// so a failing run can be replayed. It is only drawn from during New.
	Rng *rand.Rand
	// Clock supplies every timer and timestamp the node uses: setup/round
	// waits, the GC sweep, the heartbeat/liveness loop, and per-flow
	// activity stamps. Defaults to simnet.Wall; inject a
	// simnet.VirtualClock to run the node in deterministic virtual time.
	Clock simnet.Clock
}

func (c *Config) fillDefaults() {
	if c.SetupWait == 0 {
		c.SetupWait = 500 * time.Millisecond
	}
	if c.RoundWait == 0 {
		c.RoundWait = 300 * time.Millisecond
	}
	if c.GapWait == 0 {
		c.GapWait = 2 * c.RoundWait
	}
	if c.FlowTTL == 0 {
		c.FlowTTL = 2 * time.Minute
	}
	if c.GCInterval == 0 {
		c.GCInterval = 10 * time.Second
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = 4096
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > 64 {
		c.Shards = 64
	}
	c.Shards = metrics.CeilPow2(c.Shards)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Burst <= 0 {
		c.Burst = 64
	}
	if c.Burst > c.QueueDepth {
		c.Burst = c.QueueDepth
	}
	if c.Heartbeat > 0 && c.LivenessTimeout == 0 {
		c.LivenessTimeout = 4 * c.Heartbeat
	}
	if c.Rng == nil {
		c.Rng = simnet.NewRand()
	}
	if c.Clock == nil {
		c.Clock = simnet.Wall
	}
}

// Message is a decrypted application message delivered to the destination.
type Message struct {
	Flow wire.FlowID
	Data []byte
}

// Stats counts node activity. Counters are maintained per shard (see
// ShardStats) and summed by Stats, so the hot path never writes a shared
// cache line.
type Stats struct {
	SetupPacketsIn    int64
	DataPacketsIn     int64
	PacketsOut        int64
	Regenerated       int64 // slices recreated via network coding
	FlowsEstablished  int64
	MessagesDelivered int64
	RoundsSkipped     int64 // receiver rounds written off after GapWait
	RoundsExpired     int64 // unfinished rounds written off by window overflow
	LateSlices        int64 // slices for a round below the window or already finished
	StreamResyncs     int64 // reassembly re-alignments after a skip
	Dropped           int64 // undeliverable app messages (channel full)
	QueueDrops        int64 // packets dropped at a full shard queue
	SendDrops         int64 // packets shed at a full transport peer queue

	// Flow-table admission and eviction (multi-tenant daemon counters).
	FlowsEvicted  int64 // flows reaped by TTL eviction
	FlowsRejected int64 // flow creations refused by MaxFlows or TenantQuota
	// FilterMisses counts packets the front filter (or, for sender-addressed
	// acks/reports, the child directory) rejected on a transport goroutine
	// without taking any shard lock: unknown flows, garbage, post-eviction
	// stragglers.
	FilterMisses int64

	// Control plane (zero unless Config.Heartbeat is set).
	HeartbeatsIn        int64
	HeartbeatsOut       int64
	ParentDownSent      int64 // reports this node originated
	ParentDownForwarded int64 // reports re-stamped toward the source
	SplicesApplied      int64 // info blocks swapped by an authenticated splice
}

// add folds o into s: every field is an int64 counter, so a counter added
// to Stats is in the fold by construction.
func (s *Stats) add(o Stats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := range sv.NumField() {
		sv.Field(i).SetInt(sv.Field(i).Int() + ov.Field(i).Int())
	}
}

// Node is one overlay relay daemon.
type Node struct {
	id  wire.NodeID
	tr  overlay.Transport
	cfg Config
	clk simnet.Clock

	shards []*shard
	mask   uint64
	// flowCount is the table occupancy across all shards; admit (table.go)
	// keeps it at or under MaxFlows without a global lock.
	flowCount atomic.Int64

	// Per-tenant admission accounting (table.go); tenants is nil unless
	// Config.TenantQuota is set.
	tenantMu sync.Mutex
	tenants  map[wire.NodeID]int64

	// children routes sender-addressed packets (acks, ParentDown) to just
	// the shards holding a matching flow; dirMisses counts the ones that
	// matched nothing and were dropped lock-free (folded into
	// Stats.FilterMisses).
	children  childDir
	dirMisses atomic.Int64

	received  chan Message
	done      chan struct{}
	closeOne  sync.Once
	closeDone chan struct{}
	wg        sync.WaitGroup

	// Periodic work runs as clock tasks so a virtual clock can fire the GC
	// and heartbeat sweeps deterministically.
	gcTask   simnet.Task
	ctrlTask simnet.Task

	// egPool backs the refcounted egress slabs; owned is the transport's
	// zero-copy batch entry point when it offers one (nil ⇒ every egress
	// frame falls back to the copying per-frame Send).
	egPool *transport.SlabPool
	owned  overlay.OwnedSender
}

// shard is one stripe of the flow table plus everything its worker needs.
// Each shard struct is allocated separately so neighboring shards' hot
// fields never share a cache line.
type shard struct {
	idx        int
	in         chan inPkt
	queueDrops atomic.Int64 // written by transport goroutines, not the worker
	// filter fronts the flow map: transport goroutines consult it lock-free
	// and drop flow-addressed traffic that cannot match (cuckoo.go);
	// mutations ride the shard lock with the map itself.
	filter       *cuckooFilter
	filterMisses atomic.Int64 // lookups the filter rejected without the lock

	// mu serializes the worker with timers, GC sweeps, and stats snapshots.
	// Everything below it is single-writer in the steady state.
	mu    sync.Mutex
	flows map[wire.FlowID]*flowState
	// lruHead/lruTail order resident flows by lastActive (head coldest);
	// the intrusive links live in flowState, so touch is O(1) and the TTL
	// sweep is O(evicted) (table.go).
	lruHead *flowState
	lruTail *flowState
	stats   Stats
	rng     *rand.Rand

	// pktBuf is the control-plane framing buffer, reused for every flow on
	// this shard. (Forwarding's regeneration scratch is egress-side: egRegen.)
	pktBuf []byte

	// byChild indexes established flows by child address: acks and
	// ParentDown reports are sender-addressed, and used to scan the whole
	// flow table per packet. Maintained by dirAdd/dirDelLocked under sh.mu.
	byChild map[wire.NodeID]map[wire.FlowID]*flowState
	// ackTargets is the reusable parent-set scratch for the ack and
	// ParentDown floods (sendAckLocked, floodUpstreamLocked).
	ackTargets map[wire.NodeID]bool

	// Two-stage egress (egress.go): rounds are claimed into stage under mu;
	// runEgress swaps stage/work under a brief mu window and does recode,
	// framing, and sends under egMu only. Lock order egMu → mu, never the
	// reverse. egRng/egRegen/egBatches are egress-side scratch, touched
	// only under egMu.
	egMu      sync.Mutex
	stage     egState
	work      egState
	egRegen   []code.Slice
	egRng     *rand.Rand
	egBatches []destBatch
}

type inPkt struct {
	from wire.NodeID
	data []byte
	// release returns the packet's busy token to the clock once the shard
	// worker has fully processed it — the hook that lets a virtual clock
	// know the universe has not quiesced while packets sit in shard queues.
	// A no-op on the wall clock.
	release func()
}

type flowState struct {
	// Table identity and admission accounting: the flow's own key (so the
	// LRU sweep can unmap without a reverse lookup), the tenant whose
	// quota the flow holds, and whether its fingerprint made it into the
	// shard filter (false ⇒ it is carried by the filter's overflow count
	// instead; see removeFlowLocked).
	flow     wire.FlowID
	tenant   wire.NodeID
	inFilter bool
	// Intrusive LRU links, guarded by the shard lock (table.go).
	lruPrev *flowState
	lruNext *flowState

	// Setup phase. Candidate own-slices are grouped by the split factor d
	// claimed in their packet header: a forged packet cannot poison the
	// flow because (d, geometry) are adopted only from the group that
	// actually decodes into a checksummed routing block. All phase maps
	// below are allocated lazily by the first packet of their phase: a
	// million-flow table pays per flow for the phases the flow entered,
	// not for every map it might ever need.
	setupPkts map[wire.NodeID]*wire.Packet
	ownByD    map[int][]code.Slice
	info      *wire.PerNodeInfo
	parents   map[wire.NodeID]bool
	// seen records the previous-hop addresses observed for this flow; a
	// last-stage node has an empty slice-map/data-map, so observation is
	// its only parent knowledge (and all the threat model grants it).
	// Sender ids are claimed, not proven, so the set is capped at
	// maxObservedHops (map-derived parents are exempt) and observation-only
	// entries age out under the forget-after-obsReportLimit rule — spoofed
	// ids on a valid flow cannot grow it without bound.
	seen       map[wire.NodeID]bool
	setupSent  bool
	setupTimer simnet.Timer

	// Packet geometry, adopted when the routing block decodes. geomByD
	// remembers the setup slot geometry per claimed d until then.
	d       int
	slotLen int
	nSlots  int
	geomByD map[int][2]int

	// Data phase: the round window, allocated by the first slice to hold.
	win         *roundWindow
	pendingData []pendingPacket
	// missStreak counts the consecutive rounds each parent has missed; at
	// deadParentStreak it is presumed down and rounds stop waiting for it,
	// until it speaks again. More than one miss is required so that a single
	// dropped datagram cannot lower the forward threshold: the next round
	// would forward the instant the surviving parent spoke and discard the
	// marked parent's microseconds-late slice, re-marking it, round after round.
	missStreak map[wire.NodeID]int

	// Control plane (live churn repair; populated only when the node runs
	// with Config.Heartbeat > 0, except lastHeard which is cheap enough to
	// keep always).
	//
	// lastHeard timestamps every previous-hop address per packet received;
	// the liveness sweep compares parents' entries against LivenessTimeout.
	// downSince remembers when a quiet parent was last reported so reports
	// re-emit at most once per timeout while it stays dead; downCount
	// applies the leaf-flow forgetting rule (see checkParentsLocked).
	// seenReports dedupes the ParentDown flood by its clear nonce.
	lastHeard   map[wire.NodeID]time.Time
	downSince   map[wire.NodeID]time.Time
	downCount   map[wire.NodeID]int
	seenReports map[uint64]bool
	// spliceSeq is the sequence number of the last repair patch applied;
	// older or duplicate patches (multipath, retransmission, reordering)
	// are dropped so the newest routing state always wins.
	spliceSeq uint64

	// Receiver-side reassembly. nextSeq is the round the stream is waiting
	// on; decoded rounds ahead of it park in their window slots, and opener
	// opens messages under the flow's key. gapTimer arms while a hole blocks
	// buffered rounds (gapSeq records which hole, so a firing timer can tell
	// progress from a stall); resync marks that the byte stream lost framing
	// to a skipped round and must re-align on a message boundary.
	// tainted marks that the stream's framing derives from a resync guess
	// rather than an unbroken chunk sequence; it gates the length sanity
	// check in drainStreamLocked and clears once a message authenticates.
	nextSeq  uint32
	opener   *slcrypto.Sealer
	stream   []byte
	gapTimer simnet.Timer
	gapSeq   uint32
	resync   bool
	tainted  bool

	// ackSent dedupes the establishment acknowledgment that travels hop by
	// hop back to the source endpoints (§7.4 measures setup latency with
	// it). Relays recognise reverse traffic by the sender's address — a
	// previous/next-hop identity they already hold.
	ackSent bool

	lastActive time.Time
}

type pendingPacket struct {
	from wire.NodeID
	pkt  *wire.Packet
}

// deadParentStreak is how many consecutive rounds a parent must miss before
// it is presumed down. One round is too trigger-happy on a datagram
// substrate: a single 2%-loss drop would shed redundancy for a stretch of
// following rounds (see flowState.missStreak).
const deadParentStreak = 2

// deadParents counts the parents presumed down.
func (fs *flowState) deadParents() (n int) {
	for _, k := range fs.missStreak {
		if k >= deadParentStreak {
			n++
		}
	}
	return n
}

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("relay: node closed")

// New attaches a relay daemon to the transport and starts its shard
// workers.
func New(id wire.NodeID, tr overlay.Transport, cfg Config) (*Node, error) {
	cfg.fillDefaults()
	n := &Node{
		id:        id,
		tr:        tr,
		cfg:       cfg,
		clk:       cfg.Clock,
		shards:    make([]*shard, cfg.Shards),
		mask:      uint64(cfg.Shards - 1),
		received:  make(chan Message, 256),
		done:      make(chan struct{}),
		closeDone: make(chan struct{}),
	}
	n.children.entries = make(map[wire.NodeID]*childEntry)
	if cfg.TenantQuota > 0 {
		n.tenants = make(map[wire.NodeID]int64)
	}
	// Each shard's filter is sized for its fair share of MaxFlows; an
	// adversarially skewed shard degrades its filter to pass-through
	// (overflow mode) rather than ever reporting a resident flow absent.
	perShard := cfg.MaxFlows / cfg.Shards
	for i := range n.shards {
		n.shards[i] = &shard{
			idx:     i,
			in:      make(chan inPkt, cfg.QueueDepth),
			flows:   make(map[wire.FlowID]*flowState),
			filter:  newCuckooFilter(perShard),
			rng:     rand.New(rand.NewSource(cfg.Rng.Int63())),
			egRng:   rand.New(rand.NewSource(cfg.Rng.Int63())),
			byChild: make(map[wire.NodeID]map[wire.FlowID]*flowState),
		}
	}
	n.egPool = transport.NewSlabPool(0, 0)
	n.owned, _ = tr.(overlay.OwnedSender)
	if err := tr.Attach(id, n.onPacket); err != nil {
		return nil, err
	}
	for _, sh := range n.shards {
		n.wg.Add(1)
		go n.runShard(sh)
	}
	n.gcTask = n.clk.Every(cfg.GCInterval, n.gcSweep)
	if cfg.Heartbeat > 0 {
		n.ctrlTask = n.clk.Every(cfg.Heartbeat, n.controlSweep)
	}
	return n, nil
}

// ID returns the node's overlay identity.
func (n *Node) ID() wire.NodeID { return n.id }

// Received yields messages decrypted by this node when it is a flow's
// destination.
func (n *Node) Received() <-chan Message { return n.received }

// shardFor maps a flow to its shard. Flow-ids are relay-chosen random
// 64-bit values, but a finalizing mix keeps the stripes balanced even for
// adversarially clustered ids.
func (n *Node) shardFor(f wire.FlowID) *shard {
	return n.shards[metrics.Mix64(uint64(f))&n.mask]
}

// Stats returns a snapshot of activity counters summed across shards.
func (n *Node) Stats() Stats {
	var tot Stats
	for _, s := range n.ShardStats() {
		tot.add(s)
	}
	return tot
}

// ShardStats returns one counter snapshot per shard; Stats is their sum.
func (n *Node) ShardStats() []Stats {
	out := make([]Stats, len(n.shards))
	for i, sh := range n.shards {
		sh.mu.Lock()
		out[i] = sh.stats
		sh.mu.Unlock()
		out[i].QueueDrops = sh.queueDrops.Load()
		out[i].FilterMisses = sh.filterMisses.Load()
	}
	// Directory misses (sender-addressed packets matching no shard) are
	// node-level; fold them into the first shard's snapshot so Stats sums
	// them exactly once.
	out[0].FilterMisses += n.dirMisses.Load()
	return out
}

// Established reports whether the node has decoded its routing info for the
// given flow (used by setup-latency experiments).
func (n *Node) Established(f wire.FlowID) bool {
	sh := n.shardFor(f)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fs := sh.flows[f]
	return fs != nil && fs.info != nil
}

// EstablishedCount returns how many flows this node has decoded info for.
func (n *Node) EstablishedCount() int {
	c := 0
	for _, sh := range n.shards {
		sh.mu.Lock()
		for _, fs := range sh.flows {
			if fs.info != nil {
				c++
			}
		}
		sh.mu.Unlock()
	}
	return c
}

// FlowTableSize reports current flow-table occupancy across shards.
func (n *Node) FlowTableSize() int { return int(n.flowCount.Load()) }

// Close detaches the node, stops its workers, and stops its timers. The
// shard workers are joined BEFORE the flow table is swept: a worker
// mid-burst can insert a flow (taking an admission reservation), so
// sweeping first would let that insert land after the sweep and leak the
// reservation forever. With the workers drained and exited, the sweep sees
// the final table and releases every reservation exactly once.
func (n *Node) Close() {
	n.closeOne.Do(func() {
		defer close(n.closeDone)
		close(n.done)
		n.tr.Detach(n.id)
		n.gcTask.Stop()
		if n.ctrlTask != nil {
			n.ctrlTask.Stop()
		}
		n.wg.Wait()
		for _, sh := range n.shards {
			// The worker is gone: release the holds of what is still queued
			// (a transport goroutine that raced Detach may enqueue this late)
			// so a virtual clock is not wedged by packets nobody processes.
			for {
				select {
				case p := <-sh.in:
					p.release()
					continue
				default:
				}
				break
			}
			sh.mu.Lock()
			for f, fs := range sh.flows {
				n.removeFlowLocked(sh, f, fs, false)
			}
			sh.mu.Unlock()
		}
	})
	<-n.closeDone
}

func (fs *flowState) stopTimers() {
	if fs.setupTimer != nil {
		fs.setupTimer.Stop()
	}
	if fs.gapTimer != nil {
		fs.gapTimer.Stop()
	}
	if fs.win != nil && fs.win.timer != nil {
		fs.win.timer.Stop()
	}
}

// gcSweep evicts idle flows; it runs as a periodic clock task. The sweep
// is incremental: each shard walks its LRU list from the cold end and
// stops at the first flow inside the TTL (the list is ordered by
// lastActive, so everything behind it is live too), holding the shard
// lock for O(evicted+1) work instead of a full-map scan — at large flow
// counts the old scan was itself the p99 cliff. At most gcBatch flows go
// per shard per tick; a mass expiry drains over successive ticks.
func (n *Node) gcSweep() {
	select {
	case <-n.done:
		return
	default:
	}
	now := n.clk.Now()
	for _, sh := range n.shards {
		sh.mu.Lock()
		for i := 0; i < gcBatch; i++ {
			fs := sh.lruHead
			if fs == nil || now.Sub(fs.lastActive) <= n.cfg.FlowTTL {
				break
			}
			n.removeFlowLocked(sh, fs.flow, fs, true)
		}
		sh.mu.Unlock()
	}
}

// onPacket is the transport handler; it runs on transport goroutines,
// possibly many concurrently (see overlay.Handler). It only classifies the
// datagram and hands its buffer to the owning shard's queue — ownership of
// data transfers to the shard worker, which is the single goroutine that
// parses and processes it.
//
// Two lock-free front filters keep non-flow traffic off the shard locks
// entirely. Sender-addressed packets (acks, ParentDown reports — their
// flow-id names the *child's* flow, unknown here) are routed by the child
// directory to just the shards holding a flow that lists the sender as a
// child, instead of fanning out to all of them; a sender matching nothing
// is dropped here. Flow-addressed packets that can never create state
// (heartbeats, splices, garbage types) consult the owning shard's cuckoo
// filter and are dropped without enqueueing when the flow cannot be
// resident. Setup and data packets always pass — they legitimately create
// flows. Either drop is counted in Stats.FilterMisses.
func (n *Node) onPacket(from wire.NodeID, data []byte) {
	if len(data) < wire.HeaderLen {
		return // garbage: drop
	}
	select {
	case <-n.done:
		return
	default:
	}
	t := wire.MsgType(data[0])
	if t == wire.MsgAck || t == wire.MsgParentDown {
		// The buffer is shared read-only across the matched shards: every
		// shard only parses it and copies what it forwards.
		mask := n.childMask(from)
		if mask == 0 {
			n.dirMisses.Add(1)
		}
		for ; mask != 0; mask &= mask - 1 {
			n.shards[bits.TrailingZeros64(mask)].enqueue(from, data, n.clk.Hold())
		}
		return
	}
	f := wire.FlowID(binary.BigEndian.Uint64(data[1:]))
	sh := n.shardFor(f)
	if t != wire.MsgSetup && t != wire.MsgData && !sh.filter.mayContain(uint64(f)) {
		sh.filterMisses.Add(1)
		return
	}
	sh.enqueue(from, data, n.clk.Hold())
}

// enqueue hands a packet (and its clock hold) to the shard queue; a full
// queue drops the packet and releases the hold immediately.
func (sh *shard) enqueue(from wire.NodeID, data []byte, release func()) {
	select {
	case sh.in <- inPkt{from: from, data: data, release: release}:
	default:
		sh.queueDrops.Add(1)
		release()
	}
}

// runShard is a shard's worker pipeline: it drains the bounded queue in
// bursts of up to Config.Burst packets and processes each burst against the
// shard's slice of the flow table under one lock acquisition. The burst and
// parse scratch are worker-local and reused forever; entries are zeroed
// after release so the worker never pins receive buffers between bursts.
func (n *Node) runShard(sh *shard) {
	defer n.wg.Done()
	burst := make([]inPkt, 0, n.cfg.Burst)
	parsed := make([]wire.Packet, n.cfg.Burst)
	for {
		select {
		case <-n.done:
			return // Close releases whatever is still queued
		case p := <-sh.in:
			// One packet is in hand; opportunistically take whatever else
			// is already queued, up to the burst bound.
			burst = append(burst[:0], p)
		fill:
			for len(burst) < n.cfg.Burst {
				select {
				case q := <-sh.in:
					burst = append(burst, q)
				default:
					break fill
				}
			}
			n.processBurst(sh, burst, parsed)
			// Drain the egress stage before releasing the burst's clock
			// holds: under a virtual clock the sends must land in the same
			// instant that admitted the packets, or quiescence would race
			// the recode.
			n.runEgress(sh)
			// Releasing after the lock drops is safe for determinism: every
			// packet in the burst acquired its hold at enqueue time, so the
			// virtual clock could not have advanced past any of them; the
			// batch only delays quiescence, never reorders it.
			for i := range burst {
				burst[i].release()
				burst[i] = inPkt{}
			}
		}
	}
}

// processBurst parses every packet header in the burst into the worker's
// reused parse scratch (parsed[i] for burst[i]; handlers that keep a packet
// clone it), then takes the shard lock once, performs one shutdown check,
// and dispatches each packet. It does not release clock holds — that is the
// caller's job (releases happen after the lock drops).
func (n *Node) processBurst(sh *shard, burst []inPkt, parsed []wire.Packet) {
	for i := range burst {
		if wire.ParsePacket(burst[i].data, &parsed[i]) != nil {
			parsed[i].Type = 0 // garbage: drop
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case <-n.done:
		// Close has (or is about to have) cleared this shard under its
		// lock; processing queued packets now would resurrect flow state,
		// leak reservations, and arm timers nobody stops.
		return
	default:
	}
	for i := range burst {
		if parsed[i].Type != 0 {
			n.dispatchLocked(sh, burst[i].from, &parsed[i])
		}
	}
}

// dispatchLocked routes one parsed packet to its handler. It is the only
// data-path writer of the shard's state; the shard lock is held for the
// benefit of timers, GC, and stats snapshots.
func (n *Node) dispatchLocked(sh *shard, from wire.NodeID, pkt *wire.Packet) {
	switch pkt.Type {
	case wire.MsgAck:
		// Acks are matched by sender address, not flow-id, and never create
		// flow state.
		n.handleAck(sh, from)
		return
	case wire.MsgParentDown:
		// Likewise matched by sender address; never creates flow state.
		n.handleParentDown(sh, from, pkt)
		return
	}
	fs := sh.flows[pkt.Flow]
	if fs == nil {
		// Only the packets that legitimately start a flow may create state:
		// control traffic for an unknown flow is dropped, so an attacker
		// cannot fill the flow table with heartbeats or splice probes.
		if pkt.Type != wire.MsgSetup && pkt.Type != wire.MsgData {
			return
		}
		if fs = n.createFlowLocked(sh, pkt.Flow, from); fs == nil {
			return // admission refused (MaxFlows or tenant quota)
		}
	}
	// Record the previous hop, bounded: sender ids are claimed, so only
	// maxObservedHops distinct observation-only senders are remembered per
	// flow (map-derived parents always are). Unrecorded senders' packets
	// are still processed — the cap bounds state, not traffic.
	known := fs.seen[from]
	if !known && (len(fs.seen) < maxObservedHops || fs.parents[from]) {
		fs.seen[from] = true
		known = true
	}
	now := n.clk.Now()
	if known || fs.parents[from] {
		if fs.lastHeard == nil {
			fs.lastHeard = make(map[wire.NodeID]time.Time)
		}
		fs.lastHeard[from] = now
	}
	if pkt.Type != wire.MsgHeartbeat {
		// Heartbeats prove the *parent* is alive; they deliberately do not
		// refresh the flow itself, so an idle session still ages out of the
		// table (FlowTTL) instead of being kept alive forever by keepalives.
		fs.lastActive = now
		sh.lruTouchLocked(fs)
	}
	switch pkt.Type {
	case wire.MsgSetup:
		sh.stats.SetupPacketsIn++
		n.handleSetup(sh, pkt.Flow, fs, from, pkt)
	case wire.MsgData:
		sh.stats.DataPacketsIn++
		n.handleData(sh, pkt.Flow, fs, from, pkt)
	case wire.MsgHeartbeat:
		sh.stats.HeartbeatsIn++
	case wire.MsgSplice:
		n.handleSplice(sh, fs, pkt)
	}
}

// sendLocked hands one framed packet to the transport, counting it out.
// Transports never block the caller (the non-blocking send contract): a
// peer whose outbound queue is full sheds the packet and reports the
// advisory ErrSendQueueFull, which is counted here — a shard worker or the
// control loop must never stall on a slow peer's TCP backpressure. Runs
// with sh.mu held.
func (n *Node) sendLocked(sh *shard, to wire.NodeID, buf []byte) {
	sh.stats.PacketsOut++
	if err := n.tr.Send(n.id, to, buf); err != nil && errors.Is(err, overlay.ErrSendQueueFull) {
		sh.stats.SendDrops++
	}
}

// handleAck propagates an establishment acknowledgment one hop toward the
// source: the ack arrives stamped with the *child's* flow-id, which this
// node does not know — but it does know the child's address, so the
// shard's byChild index hands it exactly the flows that list the sender
// among their children (it used to scan every flow on the shard per ack).
// Runs with sh.mu held.
func (n *Node) handleAck(sh *shard, from wire.NodeID) {
	for flow, fs := range sh.byChild[from] {
		if fs.info == nil || fs.ackSent {
			continue
		}
		n.sendAckLocked(sh, flow, fs)
	}
}

// ackTargetsLocked collects a flow's upstream fan-out — parents named in
// the maps plus every observed previous hop (a last-stage receiver has no
// maps) — into the shard's reusable scratch set. Valid until the next call
// on the same shard; runs with sh.mu held.
func (sh *shard) ackTargetsLocked(fs *flowState) map[wire.NodeID]bool {
	if sh.ackTargets == nil {
		sh.ackTargets = make(map[wire.NodeID]bool, 8)
	}
	clear(sh.ackTargets)
	for p := range fs.parents {
		sh.ackTargets[p] = true
	}
	for p := range fs.seen {
		sh.ackTargets[p] = true
	}
	return sh.ackTargets
}

// sendAckLocked emits this flow's ack to all parents. Runs with sh.mu held.
func (n *Node) sendAckLocked(sh *shard, flow wire.FlowID, fs *flowState) {
	fs.ackSent = true
	pkt := &wire.Packet{Type: wire.MsgAck, Flow: flow}
	sh.pktBuf = pkt.AppendTo(sh.pktBuf[:0])
	n.floodUpstreamLocked(sh, fs, sh.pktBuf)
}

// handleSetup runs on the shard worker with sh.mu held.
func (n *Node) handleSetup(sh *shard, f wire.FlowID, fs *flowState, from wire.NodeID, pkt *wire.Packet) {
	if fs.setupSent {
		return // already forwarded; late packets are useless
	}
	if _, dup := fs.setupPkts[from]; dup {
		return
	}
	if fs.setupPkts == nil {
		fs.setupPkts = make(map[wire.NodeID]*wire.Packet)
		fs.ownByD = make(map[int][]code.Slice)
		fs.geomByD = make(map[int][2]int)
	}
	// Kept until the wave is forwarded; pkt itself is parse scratch.
	fs.setupPkts[from] = pkt.Clone()
	// Slot 0 carries one of our own slices (if it validates; padding and
	// slices lost upstream do not). The packet's claimed split factor only
	// labels the candidate group — it becomes authoritative when the group
	// decodes into a block that passes magic and checksum.
	d := int(pkt.CoeffLen)
	if len(pkt.Slots) > 0 && d >= 1 && d <= 64 {
		if s, err := wire.DecodeSlot(pkt.Slots[0], d); err == nil {
			fs.ownByD[d] = append(fs.ownByD[d], s)
			if _, ok := fs.geomByD[d]; !ok {
				fs.geomByD[d] = [2]int{int(pkt.SlotLen), len(pkt.Slots)}
			}
		}
	}
	if fs.info == nil {
		for cand, slices := range fs.ownByD {
			if !code.Decodable(cand, slices) {
				continue
			}
			blob, err := code.Decode(cand, slices)
			if err != nil {
				continue
			}
			pi, err := wire.UnmarshalPerNodeInfo(blob)
			if err != nil {
				continue
			}
			fs.info = pi
			fs.parents = parentSet(pi)
			fs.d = cand
			geom := fs.geomByD[cand]
			fs.slotLen, fs.nSlots = geom[0], geom[1]
			sh.stats.FlowsEstablished++
			// Register the flow's children so sender-addressed acks and
			// reports from them route to this shard (table.go).
			n.dirAddLocked(sh, fs, pi)
			// Seed parent liveness: a parent that never speaks after
			// establishment is detected one LivenessTimeout from now, not
			// reported blind.
			now := n.clk.Now()
			if fs.lastHeard == nil {
				fs.lastHeard = make(map[wire.NodeID]time.Time)
			}
			for p := range fs.parents {
				if _, ok := fs.lastHeard[p]; !ok {
					fs.lastHeard[p] = now
				}
			}
			if pi.Receiver {
				// Establishment acknowledgment toward the source endpoints
				// (§7.4): originated by the destination, re-stamped hop by
				// hop.
				n.sendAckLocked(sh, f, fs)
			}
			// Process any data that raced ahead of the decode.
			for _, pd := range fs.pendingData {
				n.handleData(sh, f, fs, pd.from, pd.pkt)
			}
			fs.pendingData = nil
			break
		}
	}
	if fs.info == nil {
		return // not yet decodable; if it never is, GC reaps the flow
	}
	if fs.info.Spliced || len(fs.info.Children) == 0 {
		// A spliced-in replacement (its block came straight from the source
		// endpoints, its children were patched directly) or a leaf: no wave
		// to forward, so the setup state, and the buffers it pins, is done.
		fs.setupSent = true
		fs.setupPkts, fs.ownByD, fs.geomByD = nil, nil, nil
		return
	}
	if len(fs.setupPkts) >= len(fs.parents) && fs.parentsAllPresent() {
		n.forwardSetupLocked(sh, f, fs)
		return
	}
	if fs.setupTimer == nil {
		fs.setupTimer = n.clk.AfterFunc(n.cfg.SetupWait, func() {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if cur := sh.flows[f]; cur == fs && fs.info != nil && !fs.setupSent {
				n.forwardSetupLocked(sh, f, fs)
			}
		})
	}
}

func (fs *flowState) parentsAllPresent() bool {
	for p := range fs.parents {
		if _, ok := fs.setupPkts[p]; !ok {
			return false
		}
	}
	return true
}

func parentSet(pi *wire.PerNodeInfo) map[wire.NodeID]bool {
	s := make(map[wire.NodeID]bool)
	for _, e := range pi.DataMap {
		s[e.Parent] = true
	}
	for _, e := range pi.SliceMap {
		s[e.Src.Parent] = true
	}
	return s
}

// forwardSetupLocked builds one packet per child: slot 0 and the downstream
// slots come from the slice-map (each stripped of one scrambling layer);
// everything else — including slots whose source packet never arrived — is
// random padding, keeping packet size constant (§9.4c).
func (n *Node) forwardSetupLocked(sh *shard, f wire.FlowID, fs *flowState) {
	fs.setupSent = true
	if fs.setupTimer != nil {
		fs.setupTimer.Stop()
	}
	pi := fs.info
	out := make([]*wire.Packet, len(pi.Children))
	for c := range out {
		slots := make([][]byte, fs.nSlots)
		for i := range slots {
			slots[i] = wire.RandomSlot(fs.slotLen, sh.rng)
		}
		out[c] = &wire.Packet{
			Type:     wire.MsgSetup,
			Flow:     pi.ChildFlows[c],
			CoeffLen: uint8(fs.d),
			SlotLen:  uint16(fs.slotLen),
			Slots:    slots,
		}
	}
	for _, e := range pi.SliceMap {
		src, ok := fs.setupPkts[e.Src.Parent]
		if !ok || int(e.Src.Slot) >= len(src.Slots) {
			continue // lost upstream: the padding stays
		}
		blob := append([]byte(nil), src.Slots[e.Src.Slot]...)
		if len(blob) != fs.slotLen {
			continue // malformed or cross-phase packet; keep the padding
		}
		e.Unscramble.Invert(blob)
		if int(e.Child) < len(out) && int(e.DstSlot) < fs.nSlots {
			out[e.Child].Slots[e.DstSlot] = blob
		}
	}
	for c, ch := range pi.Children {
		sh.pktBuf = out[c].AppendTo(sh.pktBuf[:0])
		n.sendLocked(sh, ch, sh.pktBuf)
	}
	// The setup state is done: free it, and the receive buffers it pins.
	fs.setupPkts, fs.ownByD, fs.geomByD = nil, nil, nil
}

// handleData runs on the shard worker with sh.mu held.
func (n *Node) handleData(sh *shard, f wire.FlowID, fs *flowState, from wire.NodeID, pkt *wire.Packet) {
	if fs.info == nil {
		// Data raced ahead of setup; buffer a bounded amount.
		if len(fs.pendingData) < 1024 {
			fs.pendingData = append(fs.pendingData, pendingPacket{from, pkt.Clone()})
		}
		return
	}
	fwd := len(fs.info.Children) > 0
	if len(pkt.Slots) < 1 || !fwd && !fs.info.Receiver {
		return // a last-stage bystander has no use for the slice: hold nothing
	}
	sl, err := wire.DecodeSlot(pkt.Slots[0], fs.d)
	if err != nil {
		return
	}
	delete(fs.missStreak, from) // a parent that speaks is alive, however late its slice
	seq := pkt.Seq
	var forward, decode bool
	s := n.slotLocked(sh, fs, seq)
	if s != nil {
		forward, decode = fs.needs(seq, s)
	}
	if !forward && !decode {
		sh.stats.LateSlices++ // below the window, or a round already finished
		return
	}
	if slices.Contains(s.from, from) {
		return // duplicate
	}
	if s.deadline.IsZero() {
		s.deadline = fs.lastActive.Add(n.cfg.RoundWait) // lastActive is this packet's arrival
	}
	if s.got == nil {
		k := max(len(fs.parents), len(fs.seen))
		s.from, s.got = make([]wire.NodeID, 0, k), make([]code.Slice, 0, k)
	}
	s.from, s.got = append(s.from, from), append(s.got, sl)
	if decode {
		n.tryDeliverLocked(sh, f, fs, seq, s)
	}
	if forward && len(s.got) >= len(fs.parents)-fs.deadParents() {
		n.stageRoundLocked(sh, fs, seq, s)
	}
	fs.advanceLocked()
	if w := fs.win; fwd && w.low != w.high {
		n.armRoundTimerLocked(sh, fs, n.cfg.RoundWait)
	}
}

// maxSealedLen bounds a single sealed message on the reassembly stream. It
// doubles as the resync filter's plausibility test: after a skipped round
// the first four bytes of a candidate chunk are AEAD ciphertext — uniform
// random — unless the chunk really starts a message, so a parsed length
// above the bound rejects a mid-message chunk with probability 1−2^-12.
const maxSealedLen = 1 << 20

// tryDeliverLocked decodes a round and advances the receiver's reassembly
// stream: [4-byte sealed length ‖ sealed bytes ‖ next message ...], each
// chunk independently length-prefixed by the coding layer.
func (n *Node) tryDeliverLocked(sh *shard, f wire.FlowID, fs *flowState, seq uint32, s *roundSlot) {
	if len(s.got) < fs.d {
		return // cannot span the round yet
	}
	chunk, err := code.Decode(fs.d, s.got)
	if err != nil {
		return
	}
	s.chunk = chunk
	fs.win.buffered++
	if forward, _ := fs.needs(seq, s); !forward {
		s.release() // decoded and nothing to forward: the views are dead weight
	}
	n.spliceChunksLocked(sh, f, fs)
	n.watchGapLocked(sh, f, fs)
}

// spliceChunksLocked appends consecutively-decoded rounds to the byte
// stream and parses out completed messages. While resyncing after a skip it
// discards chunks until one passes the message-head plausibility test.
func (n *Node) spliceChunksLocked(sh *shard, f wire.FlowID, fs *flowState) {
	for w := fs.win; fs.nextSeq != w.high && w.at(fs.nextSeq).chunk != nil; {
		s := w.at(fs.nextSeq)
		c := s.chunk
		s.chunk = nil
		w.buffered--
		fs.nextSeq++
		if fs.resync {
			if len(c) < 4 {
				continue
			}
			if binary.BigEndian.Uint32(c) > maxSealedLen {
				continue // mid-message ciphertext, not a length prefix
			}
			fs.resync = false
		}
		fs.stream = append(fs.stream, c...)
	}
	n.drainStreamLocked(sh, f, fs)
}

// watchGapLocked arms the gap timer while decoded rounds sit buffered
// behind a missing one, and disarms it once the stream is contiguous. The
// timer, not round arrival, drives the write-off: the hole round may never
// reach this node at all.
func (n *Node) watchGapLocked(sh *shard, f wire.FlowID, fs *flowState) {
	if fs.gapTimer != nil {
		if fs.win.buffered > 0 && fs.gapSeq == fs.nextSeq {
			return // already watching this hole
		}
		fs.gapTimer.Stop()
		fs.gapTimer = nil
	}
	if fs.win.buffered == 0 {
		return
	}
	fs.gapSeq = fs.nextSeq
	fs.gapTimer = n.clk.AfterFunc(n.cfg.GapWait, func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.flows[f] == fs {
			n.skipGapLocked(sh, f, fs)
		}
	})
}

// skipGapLocked writes off the missing rounds the reassembly stream has
// been parked on for a full GapWait. The transport never retransmits, so a
// round still absent after that long lost more than d'−d slices at some
// stage and is gone for good; skipping it trades those messages — already
// lost — for the rest of the flow, which would otherwise head-of-line
// block forever. Any partial message in the stream lost its continuation
// with the hole, so the buffered bytes are dropped and the resync filter
// re-aligns delivery on the next plausible message boundary.
func (n *Node) skipGapLocked(sh *shard, f wire.FlowID, fs *flowState) {
	fs.gapTimer = nil
	if fs.win.buffered == 0 || fs.nextSeq != fs.gapSeq {
		n.watchGapLocked(sh, f, fs) // progress since arming: watch the new hole, if any
		return
	}
	next := fs.nextSeq
	for next != fs.win.high && fs.win.at(next).chunk == nil {
		next++
	}
	n.skipStreamLocked(sh, fs, next)
	n.spliceChunksLocked(sh, f, fs)
	n.watchGapLocked(sh, f, fs)
	fs.advanceLocked()
}

// skipStreamLocked moves the reassembly stream forward to round next,
// writing off the rounds in between and dropping the partial message they
// clipped.
func (n *Node) skipStreamLocked(sh *shard, fs *flowState, next uint32) {
	sh.stats.RoundsSkipped += int64(next - fs.nextSeq)
	if len(fs.stream) > 0 || !fs.resync {
		fs.stream = fs.stream[:0]
		fs.resync = true
		fs.tainted = true
		sh.stats.StreamResyncs++
	}
	fs.nextSeq = next
}

func (n *Node) drainStreamLocked(sh *shard, f wire.FlowID, fs *flowState) {
	for {
		if len(fs.stream) < 4 {
			return
		}
		total := int(binary.BigEndian.Uint32(fs.stream))
		if fs.tainted && total > maxSealedLen {
			// Framing lost (a resync accepted ciphertext that happened to
			// parse as a plausible length). Drop the stream and re-align at
			// the next chunk boundary. An unbroken chunk sequence is never
			// second-guessed: legitimate messages may exceed the cap.
			fs.stream = fs.stream[:0]
			fs.resync = true
			sh.stats.StreamResyncs++
			return
		}
		if len(fs.stream) < 4+total {
			return
		}
		sealed := fs.stream[4 : 4+total]
		if fs.opener == nil {
			fs.opener = slcrypto.NewSealer(fs.info.Key)
		}
		plain, err := fs.opener.OpenTo(nil, sealed)
		// Compact in place instead of reallocating per message; the buffer
		// is reused by the next chunks.
		fs.stream = fs.stream[:copy(fs.stream, fs.stream[4+total:])]
		if err != nil {
			continue // corrupted message; skip
		}
		fs.tainted = false // authenticated: framing provably re-aligned
		sh.stats.MessagesDelivered++
		select {
		case n.received <- Message{Flow: f, Data: plain}:
		default:
			sh.stats.Dropped++
		}
	}
}

// String implements fmt.Stringer for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("relay(%d)", n.id)
}
