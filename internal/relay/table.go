package relay

import (
	"slices"
	"sync"

	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// Flow-table admission, eviction order, and the child→shard directory: the
// pieces that turn the sharded flow map into a multi-tenant table a
// long-running daemon can expose to the open overlay (ROADMAP item 2).
//
// Eviction ordering rules (see DESIGN.md, "Multi-tenant flow table"):
// removal is always removeFlow, always on the shard's worker, and always in
// this order — cancel deadlines, unmap, unlink from the LRU list, withdraw
// the child index keys and directory refs, release the admission
// reservation. The directory is what transport goroutines read, so it goes
// after the map entry: a packet that passed it just before eviction is
// queued behind it and finds a clean miss, never a half-removed flow.

// maxObservedHops caps the observed senders in a flow's hop table
// (hops.go). Sender ids inside a frame are claimed, not proven, so a
// single valid flow-id must not let a peer inflate per-flow state without
// bound by cycling spoofed sender ids. The cap matches the maximum split
// factor (64): every legitimate parent of a maximally-wide flow still
// fits, and map-derived parents bypass the cap entirely.
const maxObservedHops = 64

// gcBatch bounds the evictions of the GC batch a shard's tick runs every
// GCInterval. The batch walks the LRU list from the cold end and stops at the
// first live flow, so its cost is O(evicted+1) rather than a full-map scan —
// at 1M flows such a scan was itself the latency cliff the sweep exists to
// prevent. The cap bounds even a mass-expiry tick; the rest ages out later.
const gcBatch = 1024

// createFlow admits and installs a fresh flow created by `from`, or returns
// nil, counting the rejection, when the table is at MaxFlows. Admission is that
// one node-wide reservation (flowCount, no global lock): a per-sender bound
// would meter the claimed id a frame names, which past stage 1 is a relay
// forwarding strangers' flows. The reservation is a compare-and-swap, not an
// add undone on refusal, so flowCount never reads past MaxFlows, not even
// while shards refuse concurrently (FlowTableSize). Only the two
// flow-creating packet types reach here. The flow is one record; what a phase
// needs beyond it is the tail's, made by that phase, so a table holding a
// million mostly-idle flows pays for what each flow actually did.
func (n *Node) createFlow(sh *shard, f wire.FlowID, from wire.NodeID) *flowState {
	for {
		c := n.flowCount.Load()
		if c >= int64(n.cfg.MaxFlows) {
			sh.ctr[cFlowsRejected]++
			sh.note(EvReject, f, uint64(from))
			return nil
		}
		if n.flowCount.CompareAndSwap(c, c+1) {
			break
		}
	}
	sh.note(EvAdmit, f, uint64(from))
	fs := &flowState{flow: f}
	sh.flows[f] = fs
	sh.lruPush(fs)
	return fs
}

// removeFlow tears one flow down in the canonical order (see the
// file comment); evicted distinguishes TTL eviction from shutdown
// teardown, which count what the flow still held apart.
func (n *Node) removeFlow(sh *shard, fs *flowState, evicted bool) {
	rounds, pending := cRoundsSwept, cPendingSwept
	if evicted {
		rounds, pending = cRoundsEvicted, cPendingEvicted
		sh.ctr[cFlowsEvicted]++
		sh.note(EvEvict, fs.flow, uint64(fs.lastActive))
	}
	sh.ctr[rounds] += fs.openRounds()
	if fs.tail != nil {
		sh.ctr[pending] += int64(len(fs.tail.stage.pending))
	}
	sh.cancelDeadlines(fs)
	delete(sh.flows, fs.flow)
	sh.lruRemove(fs)
	if fs.has(routeUp) {
		n.dirDel(sh, fs)
	}
	n.flowCount.Add(-1) // the admission reservation
}

// Intrusive LRU list, embedded in flowState: O(1) touch on every packet,
// O(evicted) sweep. Order tracks fs.lastActive exactly — both are updated
// at the same points (creation and every non-heartbeat packet), so the
// cold end of the list is always the oldest lastActive on the shard.

func (sh *shard) lruPush(fs *flowState) {
	fs.lruPrev = sh.lruTail
	fs.lruNext = nil
	if sh.lruTail != nil {
		sh.lruTail.lruNext = fs
	} else {
		sh.lruHead = fs
	}
	sh.lruTail = fs
}

func (sh *shard) lruRemove(fs *flowState) {
	if fs.lruPrev != nil {
		fs.lruPrev.lruNext = fs.lruNext
	} else if sh.lruHead == fs {
		sh.lruHead = fs.lruNext
	}
	if fs.lruNext != nil {
		fs.lruNext.lruPrev = fs.lruPrev
	} else if sh.lruTail == fs {
		sh.lruTail = fs.lruPrev
	}
	fs.lruPrev, fs.lruNext = nil, nil
}

func (sh *shard) lruTouch(fs *flowState) {
	if sh.lruTail == fs {
		return
	}
	sh.lruRemove(fs)
	sh.lruPush(fs)
}

// route is the flow's routing block decoded in place, with no pointer: key,
// children and the flow-id stamped on packets to each (a block's past
// inlineKids are spilled), declared parents, flags and split factor. The data
// map folds into the hop records (hops.go), the slice map into the set-up stage.
type route struct {
	key      slcrypto.SymmetricKey
	kidFlows [inlineKids]wire.FlowID
	kids     [inlineKids]wire.NodeID
	nParents int32
	nKids    uint8
	flags    uint8
	d        uint8
}

const inlineKids, inlineHops = 4, 4

const (
	routeUp       uint8 = 1 << iota // decoded: the flow is established
	routeReceiver                   // the block's destination flag
	routeRecode                     // regenerate redundancy via network coding (§4.4.1)
	routeSpliced                    // delivered by a live repair, not the set-up wave
)

// flowSpill holds what outgrows the flow record: the children of a block past
// inlineKids, a hop table past inlineHops, a data map that does not fold.
type flowSpill struct {
	kids     []wire.NodeID
	kidFlows []wire.FlowID
	hops     []hop
	dataMap  []wire.DataForward
}

func (fs *flowState) spillOver() *flowSpill {
	if fs.spill == nil {
		fs.spill = new(flowSpill)
	}
	return fs.spill
}

func (fs *flowState) has(flag uint8) bool { return fs.route.flags&flag != 0 }

// kids returns the route's children and the flow-id stamped on packets to each.
func (fs *flowState) kids() ([]wire.NodeID, []wire.FlowID) {
	if r := &fs.route; r.nKids <= inlineKids {
		return r.kids[:r.nKids], r.kidFlows[:r.nKids]
	}
	return fs.spill.kids, fs.spill.kidFlows
}

// setRoute makes pi the flow's route, keeping the split factor; the maps are
// the caller's to place.
func (fs *flowState) setRoute(pi *wire.PerNodeInfo) {
	r := &fs.route
	r.key, r.flags, r.nKids = pi.Key, routeUp, uint8(len(pi.Children))
	for i, on := range [...]bool{pi.Receiver, pi.Recode, pi.Spliced} {
		if on {
			r.flags |= routeReceiver << i
		}
	}
	copy(r.kids[:], pi.Children)
	copy(r.kidFlows[:], pi.ChildFlows)
	if len(pi.Children) > inlineKids {
		sp := fs.spillOver()
		sp.kids, sp.kidFlows = slices.Clone(pi.Children), slices.Clone(pi.ChildFlows)
	}
}

// childKey names a flow as its child knows it: the child's address and the
// flow-id this node stamps on packets to it, which the child's acks and
// ParentDown reports come back under. Both halves are 64 bits wide so the key
// hashes as plain memory.
type childKey struct{ child, flow uint64 }

// childDir maps a known child node to the set of shards holding flows that
// list it among their children. An ack or ParentDown report names the
// child's flow, which says nothing about the shard of the flow it concerns,
// and used to fan out to EVERY shard per packet. The directory narrows that
// to the shards with a flow listing the sender, each of which finds the one
// flow concerned (or none) in its byChild index; a sender that matches
// nothing (garbage, long-evicted flows) is dropped by the transport
// goroutine without touching any shard at all.
type childDir struct {
	mu      sync.RWMutex
	entries map[wire.NodeID]*childEntry
}

type childEntry struct {
	refs []int32 // per-shard refcount of flows listing this child
	mask uint64  // bit i set ⇔ refs[i] > 0 (Shards ≤ 64)
}

// childMask returns the shard bitmask for a sender, zero when no flow
// anywhere lists it as a child. Read-locked only: safe from transport
// goroutines.
func (n *Node) childMask(from wire.NodeID) uint64 {
	n.children.mu.RLock()
	e := n.children.entries[from]
	var m uint64
	if e != nil {
		m = e.mask
	}
	n.children.mu.RUnlock()
	return m
}

// dirAdd indexes a flow under its route's children: one byChild key per
// (child, child-flow) pair — a key already held stays with its holder — and
// a ref on the child→shard mask consulted by transport goroutines. Called
// at establishment and splice, never per data packet.
func (n *Node) dirAdd(sh *shard, fs *flowState) {
	kids, flows := fs.kids()
	if len(kids) == 0 {
		return
	}
	for i, c := range kids {
		k := childKey{uint64(c), uint64(flows[i])}
		if _, held := sh.byChild[k]; !held {
			sh.byChild[k] = fs.flow
		}
	}
	n.children.mu.Lock()
	for _, c := range kids {
		e := n.children.entries[c]
		if e == nil {
			e = &childEntry{refs: make([]int32, len(n.shards))}
			n.children.entries[c] = e
		}
		e.refs[sh.idx]++
		e.mask |= 1 << uint(sh.idx)
	}
	n.children.mu.Unlock()
}

// dirDel withdraws the index keys and directory refs of a flow's route
// (eviction, splice, close). A key is released only by the flow that holds
// it, so a flow whose block claims someone else's (child, child-flow) pair
// cannot unroute that flow by leaving.
func (n *Node) dirDel(sh *shard, fs *flowState) {
	kids, flows := fs.kids()
	if len(kids) == 0 {
		return
	}
	for i, c := range kids {
		if k := (childKey{uint64(c), uint64(flows[i])}); sh.byChild[k] == fs.flow {
			delete(sh.byChild, k)
		}
	}
	n.children.mu.Lock()
	for _, c := range kids {
		e := n.children.entries[c]
		if e == nil {
			continue
		}
		if e.refs[sh.idx]--; e.refs[sh.idx] <= 0 {
			e.refs[sh.idx] = 0
			e.mask &^= 1 << uint(sh.idx)
			if e.mask == 0 {
				delete(n.children.entries, c)
			}
		}
	}
	n.children.mu.Unlock()
}
