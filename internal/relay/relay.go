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
// bounded inbound queue, its own flow map, its own egress slab and
// regeneration scratch, its own deterministic RNG, and its own activity
// counters, so packets of unrelated flows touch no shared mutable state. The
// transport handler only classifies the datagram and enqueues it.
//
// A shard is a state machine driven by two calls: step(now, burst) parses
// and dispatches one burst; tick(now) runs the flow waits due by now, then the
// GC batch and the heartbeat sweep when their instants have come. Neither
// touches a channel, timer, clock or transport: they leave frames in egress,
// opened messages and the next instant on the shard. runShard, the shard's
// one worker goroutine, is the driver that reads the clock, calls them and
// acts on what they left; its mailbox (shard.do) carries only snapshot reads.
//
// # Multi-tenant flow table
//
// A flow-addressed packet goes to the shard its flow-id hashes to, resident
// or not: a relay cannot authenticate flow creation (§9.2), so a stranger's
// set-up or data packet under a fresh flow-id must reach the worker anyway,
// and a heartbeat, splice or unknown type for an absent flow costs the worker
// no more than that — one map miss, counted in unmatched. Acks and ParentDown
// reports, stamped with the child's flow-id, not ours, are the exception: a
// lock-free child→shard directory (table.go) routes them to just the shards
// holding a flow that lists the sender as a child, where an exact-match index
// from (child, child-flow) to a flow-id — no pointers, so the collector never
// scans it — finds the one flow they concern.
// Admission is one node-wide bound (MaxFlows), and idle flows age out via an
// intrusive LRU list walked incrementally by the GC sweep, so eviction work
// is proportional to what expired, not to the table size. See DESIGN.md,
// "Multi-tenant flow table".
package relay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
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
	// before forwarding (and, if possible, regenerating) what it has. A
	// receiver's stream stalled on a missing round writes it off after two
	// of them, the gap wait (receive.go).
	RoundWait time.Duration
	// FlowTTL evicts flows with no traffic for this long.
	FlowTTL time.Duration
	// GCInterval is how often the flow table is swept.
	GCInterval time.Duration
	// MaxFlows bounds the flow table across all shards (denial-of-service
	// guard, §9.2).
	MaxFlows int
	// Shards is the number of flow-table stripes, each with its own queue
	// and worker; it is rounded up to a power of two. Defaults to GOMAXPROCS
	// (rounded up, capped at 64). A node on any Clock but simnet.Wall runs
	// one shard, whatever is set here.
	Shards int
	// Heartbeat enables the live-churn control plane: every established
	// flow sends a per-flow keepalive to each child at this interval, and
	// the same sweep reports a parent silent (no data, no heartbeat) for
	// four of them toward the source. Detection only *reports*; it
	// never changes how rounds are forwarded. Zero (the default) disables
	// the control plane entirely — the node behaves exactly like the
	// passive, redundancy-only relay.
	Heartbeat time.Duration
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

// A shard's queue holds queueDepth packets; one arriving at a full queue is
// dropped and counted in queue_drops. Its worker steps up to maxBurst at once,
// reading the clock, draining egress and releasing clock holds once per burst,
// as writev batching amortizes the peer writer's per-frame cost.
const queueDepth, maxBurst = 1024, 64

// A receiver's reassembly stream stalled on a missing round, later rounds
// already decoded, writes the hole off after gapRounds round waits: the
// transport never retransmits, so a round that lost more than d'−d slices at
// some stage is gone for good (receive.go). A parent silent for
// livenessBeats heartbeats is presumed dead and reported (control.go).
const gapRounds, livenessBeats = 2, 4

func (c *Config) fillDefaults() {
	if c.SetupWait == 0 {
		c.SetupWait = 500 * time.Millisecond
	}
	if c.RoundWait == 0 {
		c.RoundWait = 300 * time.Millisecond
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
	if c.Rng == nil {
		c.Rng = simnet.NewRand()
	}
	if c.Clock == nil {
		c.Clock = simnet.Wall
	}
	if c.Clock != simnet.Wall {
		// Off the wall clock a node is simulated: concurrent shard workers
		// would race the virtual network's per-sender sequence, and traces
		// would stop being a function of the seed.
		c.Shards = 1
	}
}

// Message is a decrypted application message delivered to the destination.
type Message struct {
	Flow wire.FlowID
	Data []byte
}

// A shard's worker counts what it does in the shard's plain block
// (shardVocab) with ++, read through its mailbox; the transport goroutines
// in front of the shards count their drops in the node's striped block
// (nodeVocab). Counters reads both as one Snapshot.
const (
	cSetupIn           = iota // set-up packets dispatched
	cDataIn                   // data packets dispatched: the slices in
	cSlicesFiled              // slices filed into a round
	cLateSlices               // for a round below the window or already finished
	cDuplicateSlices          // a parent's second slice for one round
	cUnwantedSlices           // no slot, or the node neither forwards nor decodes
	cBadSlots                 // the slice failed its checksum
	cPendingDropped           // data ahead of set-up, past the per-flow bound
	cPendingEvicted           // data ahead of set-up, evicted with its flow
	cPendingSwept             // data ahead of set-up, swept by Close
	cRoundsOpened             // rounds whose first slice was filed
	cRoundsDone               // opened rounds that were forwarded or decoded
	cRoundsExpired            // opened rounds written off unfinished
	cRoundsEvicted            // opened rounds evicted with their flow
	cRoundsSwept              // opened rounds swept by Close
	cRoundsSkipped            // receiver rounds written off after the gap wait
	cStreamResyncs            // reassembly re-alignments after a skip
	cMessagesDelivered        // messages opened at the destination
	cMessagesCorrupt          // sealed messages that failed authentication
	cAppDropped               // undeliverable app messages (channel full)
	cRegenerated              // slices recreated via network coding
	cPacketsOut               // packets handed to the transport
	cSendDrops                // packets shed at a full transport peer queue
	cGarbage                  // a header that does not parse, or an unknown type
	cSetupIgnored             // duplicate, past the hop cap, or after the wave left
	cUnmatched                // acks, reports and control packets for no flow, heartbeats from no parent
	cQueueAbandoned           // packets still queued when Close began
	cFlowsEstablished         // routing blocks decoded
	cFlowsEvicted             // flows reaped by TTL eviction
	cFlowsRejected            // flow creations refused by MaxFlows
	cHeartbeatsIn
	cHeartbeatsOut
	cParentDownSent      // reports this node originated
	cParentDownForwarded // reports re-stamped toward the source
	cSplicesApplied      // info blocks swapped by an authenticated splice
	cSplicesRefused      // splices that did not open, parse or supersede
	nShardCounters
)

var shardVocab = metrics.NewVocab([]string{
	cSetupIn: "setup_in", cDataIn: "data_in", cSlicesFiled: "slices_filed",
	cLateSlices: "late_slices", cDuplicateSlices: "duplicate_slices",
	cUnwantedSlices: "unwanted_slices", cBadSlots: "bad_slots",
	cPendingDropped: "pending_dropped", cPendingEvicted: "pending_evicted",
	cPendingSwept: "pending_swept", cRoundsOpened: "rounds_opened",
	cRoundsDone: "rounds_done", cRoundsExpired: "rounds_expired",
	cRoundsEvicted: "rounds_evicted", cRoundsSwept: "rounds_swept",
	cRoundsSkipped: "rounds_skipped", cStreamResyncs: "stream_resyncs",
	cMessagesDelivered: "messages_delivered", cMessagesCorrupt: "messages_corrupt",
	cAppDropped: "app_dropped", cRegenerated: "regenerated",
	cPacketsOut: "packets_out", cSendDrops: "send_drops", cGarbage: "garbage",
	cSetupIgnored: "setup_ignored", cUnmatched: "unmatched",
	cQueueAbandoned: "queue_abandoned", cFlowsEstablished: "flows_established",
	cFlowsEvicted: "flows_evicted", cFlowsRejected: "flows_rejected",
	cHeartbeatsIn: "heartbeats_in", cHeartbeatsOut: "heartbeats_out",
	cParentDownSent: "parent_down_sent", cParentDownForwarded: "parent_down_forwarded",
	cSplicesApplied: "splices_applied", cSplicesRefused: "splices_refused",
}...)

// Packets dropped at a full shard queue, acks and ParentDown reports from a
// sender whose bucket no shard counts in the child directory, and packets too
// short to classify.
const cQueueDrops, cFilterMisses, cRunts = 0, 1, 2

var nodeVocab = metrics.NewVocab("queue_drops", "filter_misses", "runts")

// Stats is the view of a node's counters that the benchmark ledger reads.
// FilterMisses is filter_misses: acks and ParentDown reports the child
// directory drops from a sender whose bucket no shard counts.
type Stats struct {
	DataPacketsIn, PacketsOut, Regenerated, RoundsSkipped, Dropped   int64
	QueueDrops, SendDrops, FlowsEvicted, FlowsRejected, FilterMisses int64
}

// Node is one overlay relay daemon.
type Node struct {
	id  wire.NodeID
	tr  overlay.Transport
	cfg Config
	clk simnet.Clock
	// epoch is the clock at New; hop records' stamps count from it (hops.go).
	epoch time.Time

	shards []*shard
	mask   uint64
	// flowCount is the table occupancy across all shards; createFlow
	// (table.go) keeps it at or under MaxFlows without a global lock.
	flowCount atomic.Int64

	ctr *metrics.ShardedCounter // nodeVocab
	// estSig is the channel the next establishment closes, made by the
	// first waiter (events.go); nil while nobody waits.
	estSig atomic.Pointer[chan struct{}]

	received  chan Message
	done      chan struct{}
	closeOne  sync.Once
	closeDone chan struct{}
	wg        sync.WaitGroup

	// egPool backs the refcounted egress slabs.
	egPool *transport.SlabPool

	// dir routes acks and ParentDown reports, by the sender's bucket, to just
	// the shards counting a flow that lists a child in it (table.go): bit i
	// is shard i's, set and cleared only by its worker.
	dir [dirBuckets]atomic.Uint64
}

// shard is one stripe of the flow table plus everything its worker needs.
// Each shard struct is allocated separately so neighboring shards' hot
// fields never share a cache line.
type shard struct {
	idx int
	in  chan inPkt

	// The mailbox (do) and the worker's word that a call ran; the node's
	// Close has begun, and has swept; the clock timer's wake token, a hold.
	mail         chan func()
	ran          chan struct{}
	done, closed <-chan struct{}
	wake         chan func()

	// Everything below belongs to the worker goroutine alone (DESIGN.md,
	// "One owner per shard").
	flows map[wire.FlowID]*flowState
	// lruHead/lruTail order resident flows by lastActive (head coldest);
	// the intrusive links live in flowState, so touch is O(1) and the TTL
	// sweep is O(evicted) (table.go).
	lruHead *flowState
	lruTail *flowState
	ctr     metrics.Block // shardVocab
	rng     *rand.Rand
	parsed  [maxBurst]wire.Packet // step's header scratch; handlers that keep a packet clone it

	// The flight recorder (events.go), and the stamp its events carry: the
	// current step's or tick's.
	events metrics.Ring[FlowEvent]
	now    int64

	// The tail of the last flow to come to rest, the scratch a routing block
	// decodes into before its flow copies it out, and a round's data map.
	spareTail *flowTail
	info      wire.PerNodeInfo
	blob      []byte
	feeds     []wire.DataForward

	// byChild is the exact-match fan-in index: an ack or ParentDown report
	// carries its sender and the sender's own flow-id, which is what the one
	// flow it concerns stamps on packets to that child (table.go); to that
	// flow's id, so the collector has no pointer to chase in it.
	byChild map[childKey]wire.FlowID
	// ownScratch gathers a flow's own set-up slices for a decode attempt.
	ownScratch []code.Slice

	// The deadline queue (deadline.go), and the instants of the next GC batch
	// and heartbeat sweep (hbAt zero: the control plane is off).
	deadlines  deadlineQueue
	armSeq     uint64
	gcAt, hbAt int64

	// What a step or tick leaves for the driver: every frame, filed by
	// destination (egress.go), and the messages opened at a destination.
	eg        egState
	delivered []Message

	// The driver's clock timer, armed for tickAt (zero: not armed); its
	// callback, built once, hands the worker a wake token.
	timer   simnet.Timer
	tickAt  int64
	onTimer func()

	// dirCount is this shard's half of the child directory: per bucket, the
	// flows' fan-out into children in it (table.go). Last, so the fields a
	// step touches stay together.
	dirCount [dirBuckets]int32
}

type inPkt struct {
	from wire.NodeID
	data []byte
	// release returns the packet's clock hold once the worker has processed
	// it, so a virtual clock does not quiesce while packets sit in queues.
	release func()
}

// flowState is a flow's resident record, and a flow at rest is this one heap
// object. Its hop table and routing block are inline and pointer-free; its
// only pointer words lead it, so the collector scans 4 words of it: the LRU
// links, the tail — the live phases, nil at rest; it and its buffers are the
// only other objects a builder's flow ever has — and the spill, nil unless
// the block or the hop table outgrows its inline room (table.go).
type flowState struct {
	// Intrusive LRU links (table.go), ordered by lastActive: the last
	// non-heartbeat packet's arrival, a stamp (Node.stamp).
	lruPrev, lruNext *flowState
	tail             *flowTail
	spill            *flowSpill
	lastActive       int64
	// The flow's own key, so the LRU sweep can unmap without a reverse
	// lookup.
	flow wire.FlowID
	// Pending waits, the earliest of them, and the flow's place in the
	// shard's deadline queue (deadline.go).
	heapPos int32
	due     [nDeadlines]int64
	dueAt   int64
	armSeq  uint64

	// hopBuf[:nHops] is the flow's one table of previous hops while it
	// fits (hops.go): the senders set-up staging heard, then the parents its
	// routing block names — at every stage, the last included.
	hopBuf [inlineHops]hop
	route  route
	// spliceSeq is the sequence number of the last repair patch applied;
	// older or duplicate patches (multipath, retransmission, reordering)
	// are dropped so the newest routing state always wins.
	spliceSeq uint64

	// The round window's header (its ring is the tail's), and the round a
	// destination's reassembly stream waits on (receive.go).
	win     roundWindow
	nextSeq uint32
	nHops   uint8

	// ackSent dedupes the establishment acknowledgment that travels hop by
	// hop back to the source endpoints (§7.4 measures setup latency with
	// it). Relays recognise reverse traffic by the sender's address and the
	// flow-id they stamp on packets to it — identities they already hold.
	ackSent bool

	// reports dedupes the ParentDown flood: the last reportWindow nonces
	// the flow originated or forwarded, the oldest at reportAt (control.go).
	reportAt uint8
	reports  [reportWindow]uint32
}

// flowTail is what a flow holds only while a phase is live: set-up staging
// (setup.go), the round ring (window.go) and a destination's receiver
// (receive.go).
type flowTail struct {
	stage setupStage
	ring  []roundSlot
	rx    rxTail
}

// tailFor returns the flow's tail, taking the shard's spare if it has none.
func (sh *shard) tailFor(fs *flowState) *flowTail {
	if fs.tail == nil {
		if fs.tail, sh.spareTail = sh.spareTail, nil; fs.tail == nil {
			fs.tail = new(flowTail)
		}
	}
	return fs.tail
}

// shedTail gives a flow's tail, with its buffers, to the shard's spare once no
// phase is live: a resyncing stream is tainted, a parked one has a gap wait.
func (sh *shard) shedTail(fs *flowState) {
	t := fs.tail
	if t == nil || fs.staging() || t.stage.pending != nil || t.ring != nil ||
		len(t.rx.stream) > 0 || t.rx.tainted || fs.due[dlGap] != 0 {
		return
	}
	*t = flowTail{stage: setupStage{pkts: t.stage.pkts, sliceMap: t.stage.sliceMap[:0]}, rx: rxTail{stream: t.rx.stream}}
	fs.tail, sh.spareTail = nil, t
	sh.note(EvTailShed, fs.flow, 0)
}

// New attaches a relay daemon to the transport and starts its shard
// workers.
func New(id wire.NodeID, tr overlay.Transport, cfg Config) (*Node, error) {
	cfg.fillDefaults()
	n := &Node{
		id:        id,
		tr:        tr,
		cfg:       cfg,
		clk:       cfg.Clock,
		epoch:     cfg.Clock.Now(),
		shards:    make([]*shard, cfg.Shards),
		mask:      uint64(cfg.Shards - 1),
		received:  make(chan Message, 256),
		done:      make(chan struct{}),
		closeDone: make(chan struct{}),
		ctr:       metrics.NewShardedCounter(4*runtime.GOMAXPROCS(0), nodeVocab),
	}
	for i := range n.shards {
		sh := &shard{
			idx:     i,
			in:      make(chan inPkt, queueDepth),
			mail:    make(chan func()),
			ran:     make(chan struct{}),
			done:    n.done,
			closed:  n.closeDone,
			wake:    make(chan func(), 1),
			flows:   make(map[wire.FlowID]*flowState),
			ctr:     make(metrics.Block, nShardCounters),
			events:  metrics.NewRing[FlowEvent](flowEventCap),
			rng:     rand.New(rand.NewSource(cfg.Rng.Int63())),
			eg:      egState{rng: rand.New(rand.NewSource(cfg.Rng.Int63()))},
			byChild: make(map[childKey]wire.FlowID),
			gcAt:    int64(cfg.GCInterval),
			hbAt:    int64(cfg.Heartbeat),
		}
		sh.onTimer = func() { n.wakeShard(sh) }
		n.shards[i] = sh
	}
	n.egPool = transport.NewSlabPool(slabSize, 0)
	if err := tr.Attach(id, n.onPacket); err != nil {
		return nil, err
	}
	for _, sh := range n.shards {
		n.arm(sh)
		n.wg.Add(1)
		go n.runShard(sh)
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

// Counters reads the node's counters: every shard's block, read on its
// worker and summed, joined with the node's own block.
func (n *Node) Counters() metrics.Snapshot {
	sum := make(metrics.Block, nShardCounters)
	for _, sh := range n.shards {
		sh.do(func() {
			for i, v := range sh.ctr {
				sum[i] += v
			}
		})
	}
	return sum.Snapshot(shardVocab).Add(n.ctr.Snapshot())
}

// Stats returns the benchmark's view of Counters.
func (n *Node) Stats() Stats {
	c := n.Counters()
	return Stats{
		DataPacketsIn: c.Get("data_in"), PacketsOut: c.Get("packets_out"),
		Regenerated: c.Get("regenerated"), RoundsSkipped: c.Get("rounds_skipped"),
		Dropped: c.Get("app_dropped"), QueueDrops: c.Get("queue_drops"),
		SendDrops: c.Get("send_drops"), FlowsEvicted: c.Get("flows_evicted"),
		FlowsRejected: c.Get("flows_rejected"), FilterMisses: c.Get("filter_misses"),
	}
}

// Books checks each shard's conservation laws in one mailbox call, so the
// counters and the state they account for are read together; it returns an
// error naming any residue:
//
//	slices in     = filed + late + duplicate + unwanted + bad
//	                + pending dropped, evicted and swept + still held pending set-up
//	rounds opened = done (forwarded or decoded) + expired + evicted + swept + still open
//	child index   = keys naming a resident flow whose route lists them
//	per bucket    : count = routes' fan-out, and the shard's bit is set ⇔ the count > 0
func (n *Node) Books() error {
	var errs []error
	for _, sh := range n.shards {
		sh.do(func() {
			c := sh.ctr
			slices := c[cDataIn] - c[cSlicesFiled] - c[cLateSlices] - c[cDuplicateSlices] -
				c[cUnwantedSlices] - c[cBadSlots] - c[cPendingDropped] - c[cPendingEvicted] - c[cPendingSwept]
			rounds := c[cRoundsOpened] - c[cRoundsDone] - c[cRoundsExpired] - c[cRoundsEvicted] - c[cRoundsSwept]
			var fanOut [dirBuckets]int32
			listed := map[childKey]bool{}
			for _, fs := range sh.flows {
				if fs.tail != nil {
					slices -= int64(len(fs.tail.stage.pending))
				}
				rounds -= fs.openRounds()
				kids, flows := fs.kids()
				for i, child := range kids {
					k := childKey{uint64(child), uint64(flows[i])}
					if f, ok := sh.byChild[k]; ok && f == fs.flow {
						listed[k] = true
					}
					fanOut[dirBucket(child)]++
				}
			}
			counts, bits := 0, 0
			for b, c := range sh.dirCount {
				if c != fanOut[b] {
					counts++
				}
				if (n.dir[b].Load()>>sh.idx&1 == 1) != (c > 0) {
					bits++
				}
			}
			if slices != 0 || rounds != 0 || counts != 0 || bits != 0 || len(listed) != len(sh.byChild) {
				errs = append(errs, fmt.Errorf("relay %d shard %d: books off by %d slices and %d rounds; %d directory buckets miscount the fan-out and %d disagree with their mask bit; %d of %d child index keys name a flow listing them",
					n.id, sh.idx, slices, rounds, counts, bits, len(listed), len(sh.byChild)))
			}
		})
	}
	return errors.Join(errs...)
}

// Established reports whether the node has decoded its routing info for the
// given flow (used by setup-latency experiments).
func (n *Node) Established(f wire.FlowID) (ok bool) {
	sh := n.shardFor(f)
	sh.do(func() {
		fs := sh.flows[f]
		ok = fs != nil && fs.has(routeUp)
	})
	return ok
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
		for _, sh := range n.shards {
			sh.mail <- nil // the worker's cue to exit
		}
		n.wg.Wait()
		for _, sh := range n.shards {
			// The worker is gone: release the holds of what is still queued
			// (a transport goroutine that raced Detach may enqueue this late)
			// so a virtual clock is not wedged by packets nobody processes.
			for len(sh.in) > 0 {
				(<-sh.in).release()
				sh.ctr[cQueueAbandoned]++
			}
			for _, fs := range sh.flows {
				n.removeFlow(sh, fs, false)
			}
			if sh.tickAt != 0 {
				sh.timer.Stop()
				sh.tickAt = 0
			}
			sh.dropWake()
			sh.eg.close() // every step's egress left at its tail
		}
	})
	<-n.closeDone
}

// do runs fn on the shard's worker, between steps. Once Close has begun the
// worker may be gone: fn then runs on the caller once Close has swept,
// against a shard nothing writes any more.
func (sh *shard) do(fn func()) {
	select {
	case sh.mail <- fn:
		<-sh.ran
	case <-sh.done:
		<-sh.closed
		fn()
	}
}

// onPacket is the transport handler; it runs on transport goroutines,
// possibly many concurrently (see overlay.Handler). It only classifies the
// datagram and hands its buffer to the owning shard's queue — ownership of
// data transfers to the shard worker, which is the single goroutine that
// parses and processes it.
//
// Acks and ParentDown reports carry the *child's* flow-id, which does not
// hash to the shard of the flow they concern: the child directory routes them
// by the sender's bucket to just the shards counting a flow that lists a child
// in it (each looks the (sender, flow-id) pair up exactly) instead of to all of
// them, and drops a sender whose bucket no shard counts here, counted in
// filter_misses. Every other packet goes to its flow's shard, whose worker
// drops one for an absent flow that cannot create it (dispatch, counted in
// unmatched).
func (n *Node) onPacket(from wire.NodeID, data []byte) {
	if len(data) < wire.HeaderLen {
		n.ctr.Add(uint64(from), cRunts, 1)
		return
	}
	if n.closing() {
		return
	}
	t := wire.MsgType(data[0])
	if t == wire.MsgAck || t == wire.MsgParentDown {
		// The buffer is shared read-only across the matched shards: every
		// shard only parses it and copies what it forwards.
		mask := n.childMask(from)
		if mask == 0 {
			n.ctr.Add(uint64(from), cFilterMisses, 1)
		}
		for ; mask != 0; mask &= mask - 1 {
			n.enqueue(n.shards[bits.TrailingZeros64(mask)], from, data, n.clk.Hold())
		}
		return
	}
	f := wire.FlowID(binary.BigEndian.Uint64(data[1:]))
	n.enqueue(n.shardFor(f), from, data, n.clk.Hold())
}

// enqueue hands a packet (and its clock hold) to the shard queue; a full
// queue drops the packet and releases the hold immediately.
func (n *Node) enqueue(sh *shard, from wire.NodeID, data []byte, release func()) {
	select {
	case sh.in <- inPkt{from: from, data: data, release: release}:
	default:
		n.ctr.Add(uint64(from), cQueueDrops, 1)
		release()
	}
}

// runShard is a shard's worker, the one goroutine that touches its flows,
// and the driver of its two calls: a queued packet is stepped with what else
// is queued, up to maxBurst; a wake token ticks; after either, flush acts on
// what they left. Between them it runs what the mailbox hands it. Burst
// entries are zeroed after release, so no receive buffer stays pinned.
func (n *Node) runShard(sh *shard) {
	defer n.wg.Done()
	burst := make([]inPkt, 0, maxBurst)
	for {
		select {
		case fn := <-sh.mail:
			if fn == nil {
				return // Close; it releases whatever is still queued
			}
			fn()
			sh.ran <- struct{}{}
		case release := <-sh.wake:
			if now := n.stamp(n.clk.Now()); !n.closing() {
				if now >= sh.tickAt {
					sh.tickAt = 0 // the timer has fired; flush re-arms for the next instant
				}
				n.tick(sh, now)
				n.flush(sh)
			}
			release()
		case p := <-sh.in:
			// The worker is the queue's only reader: what it holds is there.
			for burst = append(burst[:0], p); len(burst) < maxBurst && len(sh.in) > 0; {
				burst = append(burst, <-sh.in)
			}
			if n.closing() {
				sh.ctr[cQueueAbandoned] += int64(len(burst))
			} else {
				n.step(sh, n.stamp(n.clk.Now()), burst)
				n.flush(sh)
			}
			// Egress has drained, so under a virtual clock the sends land in
			// the instant that admitted the packets. Releasing the holds
			// together only delays quiescence: each was taken at enqueue,
			// so the clock could not have passed any of them.
			for i := range burst {
				burst[i].release()
				burst[i] = inPkt{}
			}
		}
	}
}

// closing reports whether Close has begun.
func (n *Node) closing() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// wakeShard is the clock timer's callback: it hands the worker a wake token
// holding the clock, so that what the tick causes lands in the instant that
// fired it. One queued token is enough, so a second is dropped; one queued as
// Close drains is taken back. Whoever takes a token releases its hold.
func (n *Node) wakeShard(sh *shard) {
	release := n.clk.Hold()
	select {
	case sh.wake <- release:
	default:
		release()
	}
	if n.closing() {
		sh.dropWake()
	}
}

// dropWake releases a queued wake token's hold without ticking.
func (sh *shard) dropWake() {
	select {
	case release := <-sh.wake:
		release()
	default:
	}
}

// flush acts on what a step or tick left on the shard: the messages opened
// here go to Received, every frame leaves through egress, and the clock timer
// follows the shard's next instant.
func (n *Node) flush(sh *shard) {
	n.deliver(sh)
	n.runEgress(sh)
	n.arm(sh)
}

// deliver hands the messages opened on the shard to Received; one that finds
// the channel full is dropped and counted in app_dropped.
func (n *Node) deliver(sh *shard) {
	for i, m := range sh.delivered {
		select {
		case n.received <- m:
		default:
			sh.ctr[cAppDropped]++
		}
		sh.delivered[i] = Message{}
	}
	sh.delivered = sh.delivered[:0]
}

// step parses every header of the burst (at most maxBurst) into the shard's
// scratch, then dispatches each packet as arriving at stamp now.
func (n *Node) step(sh *shard, now int64, burst []inPkt) {
	sh.now = now
	parsed := sh.parsed[:len(burst)]
	for i := range burst {
		if wire.ParsePacket(burst[i].data, &parsed[i]) != nil || parsed[i].Type == 0 {
			parsed[i].Type = 0
			sh.ctr[cGarbage]++
		}
	}
	for i := range burst {
		if parsed[i].Type != 0 {
			n.dispatch(sh, burst[i].from, &parsed[i], now)
		}
	}
}

// dispatch routes one parsed packet, arrived at stamp now, to its handler.
func (n *Node) dispatch(sh *shard, from wire.NodeID, pkt *wire.Packet, now int64) {
	switch pkt.Type {
	case wire.MsgAck, wire.MsgParentDown:
		// Matched on (sender, the sender's flow-id); never create flow state.
		if f, ok := sh.byChild[childKey{uint64(from), uint64(pkt.Flow)}]; ok && sh.flows[f] != nil {
			n.handleUpstream(sh, sh.flows[f], pkt)
		} else {
			sh.ctr[cUnmatched]++
		}
		return
	}
	fs := sh.flows[pkt.Flow]
	if fs == nil {
		// Only the packets that legitimately start a flow may create state:
		// control traffic for an unknown flow is dropped, so an attacker
		// cannot fill the flow table with heartbeats or splice probes.
		if pkt.Type != wire.MsgSetup && pkt.Type != wire.MsgData {
			sh.ctr[cUnmatched]++
			return
		}
		if fs = n.createFlow(sh, pkt.Flow, from); fs == nil {
			return // admission refused (MaxFlows)
		}
	}
	hi := fs.observe(from, now)
	if hi < 0 && pkt.Type == wire.MsgData && fs.has(routeUp) {
		// A slice from a sender the block does not name: it is not filed,
		// so it completes no round, and it does not refresh the flow.
		sh.ctr[cUnmatched]++
		return
	}
	if pkt.Type != wire.MsgHeartbeat {
		// Heartbeats prove the *parent* is alive; they deliberately do not
		// refresh the flow itself, so an idle session still ages out of the
		// table (FlowTTL) instead of being kept alive forever by keepalives.
		fs.lastActive = now
		sh.lruTouch(fs)
	}
	switch pkt.Type {
	case wire.MsgSetup:
		sh.ctr[cSetupIn]++
		n.handleSetup(sh, fs, hi, pkt)
	case wire.MsgData:
		sh.ctr[cDataIn]++
		n.handleData(sh, fs, from, hi, pkt.Seq, pkt.Slots)
	case wire.MsgHeartbeat:
		if hi < 0 {
			sh.ctr[cUnmatched]++ // no parent's: it refreshed nothing
		} else {
			sh.ctr[cHeartbeatsIn]++
		}
	case wire.MsgSplice:
		if n.handleSplice(sh, fs, pkt) {
			sh.ctr[cSplicesApplied]++
			sh.note(EvSplice, fs.flow, fs.spliceSeq)
		} else {
			sh.ctr[cSplicesRefused]++
		}
	default:
		sh.ctr[cGarbage]++
	}
}

// stamp puts a clock reading on the scale flow state keeps (ns since epoch).
func (n *Node) stamp(t time.Time) int64 { return int64(t.Sub(n.epoch)) }
