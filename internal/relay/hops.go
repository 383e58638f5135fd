package relay

import (
	"slices"

	"infoslicing/internal/wire"
)

// hop is one record of a flow's hop table: what the flow knows about one
// previous hop. A record exists for every parent the routing block names
// and every sender observed (capped, parents exempt), and is found by a
// linear scan once per packet — a flow has d' parents. Stamps are
// nanoseconds on the node's clock since Node.epoch, so a record is 32 bytes
// and holds no pointer.
type hop struct {
	id    wire.NodeID
	flags uint8
	// downCount is how often an observation-only hop has been reported.
	downCount uint8
	child     uint8 // where this parent's data slice goes, under hopFeeds: the data map
	// miss counts the consecutive rounds a parent has missed; at
	// deadParentStreak it is presumed down and rounds stop waiting for it,
	// until it speaks again.
	miss uint32
	// heardAt is the last packet's arrival (valid under hopHeard); downAt the
	// last report of this hop's silence (valid under hopReported).
	heardAt, downAt int64
}

const (
	hopParent    uint8 = 1 << iota // named by the slice-map or data-map
	hopObserved                    // seen sending; counted against maxObservedHops
	hopHeard                       // heardAt is set
	hopReported                    // downAt is set
	hopWasParent                   // scratch of declareParents
	hopFeeds                       // child is set
)

// deadParentStreak is how many consecutive rounds a parent must miss before
// it is presumed down. One is too trigger-happy on a datagram substrate: a
// single drop would lower the forward threshold, and every following round
// would forward the instant the others spoke, discard the marked parent's
// microseconds-late slice and re-mark it.
const deadParentStreak = 2

// hops returns the flow's hop table: inline while it fits, the spill's after.
func (fs *flowState) hops() []hop {
	if fs.spill != nil && fs.spill.hops != nil {
		return fs.spill.hops
	}
	return fs.hopBuf[:fs.nHops]
}

// setHops stores the table after the caller shrank it in place or appended
// to it; an append past the inline room moves it to the spill for good.
func (fs *flowState) setHops(h []hop) {
	if len(h) <= inlineHops && (fs.spill == nil || fs.spill.hops == nil) {
		fs.nHops = uint8(len(h))
	} else {
		fs.spillOver().hops = h
	}
}

// hopIndex returns the index of id's record, or -1.
func (fs *flowState) hopIndex(id wire.NodeID) int {
	return slices.IndexFunc(fs.hops(), func(h hop) bool { return h.id == id })
}

// observe stamps the sender of a packet that arrived at now and returns the
// index of its record, or -1 when the flow will not remember it: sender ids
// are claimed, not proven, so only maxObservedHops observed senders are kept
// per flow (declared parents always are). Unrecorded senders' packets are
// still processed — the cap bounds state, not traffic.
func (fs *flowState) observe(from wire.NodeID, now int64) int {
	hops := fs.hops()
	i, observed := 0, 0
	for ; i < len(hops) && hops[i].id != from; i++ {
		if hops[i].flags&hopObserved != 0 {
			observed++
		}
	}
	if i == len(hops) {
		if observed >= maxObservedHops {
			return -1
		}
		fs.setHops(append(hops, hop{id: from}))
	}
	h := &fs.hops()[i]
	h.flags |= hopObserved | hopHeard
	h.heardAt = now
	return i
}

// declareParents makes the parents named by pi's maps the flow's declared
// parents and folds the data map into their records. At establishment one
// not yet heard starts its liveness clock at now, so a parent that never
// speaks is detected a LivenessTimeout later, not reported blind. A splice
// also gives every parent it swaps in a fresh grace and drops the liveness
// state of the ones it removes; a removed parent that was seen sending stays
// as an observed hop. The data map folds when each parent feeds one child and
// its entries run in child order, as the builder's do; any other is spilled.
func (fs *flowState) declareParents(pi *wire.PerNodeInfo, now int64, splice bool) {
	for i, hops := 0, fs.hops(); i < len(hops); i++ {
		if h := &hops[i]; h.flags&hopParent != 0 {
			h.flags = h.flags&^(hopParent|hopFeeds) | hopWasParent
		}
	}
	fs.route.nParents = 0
	declare := func(p wire.NodeID) *hop {
		i := fs.hopIndex(p)
		if i < 0 {
			i = len(fs.hops())
			fs.setHops(append(fs.hops(), hop{id: p}))
		}
		h := &fs.hops()[i]
		if h.flags&hopParent != 0 {
			return h
		}
		h.flags |= hopParent
		fs.route.nParents++
		if fresh := splice && h.flags&hopWasParent == 0; fresh || h.flags&hopHeard == 0 {
			h.flags |= hopHeard
			h.heardAt = now
			if fresh {
				h.miss = 0
			}
		}
		return h
	}
	fold, last := true, -1
	for _, e := range pi.DataMap {
		h := declare(e.Parent)
		if c := int(e.Child); c < len(pi.Children) {
			fold = fold && c > last && h.flags&hopFeeds == 0
			last, h.child = c, e.Child
			h.flags |= hopFeeds
		}
	}
	if !fold { // kept whole but for the entries that name no child
		fs.spillOver().dataMap = slices.DeleteFunc(slices.Clone(pi.DataMap), func(e wire.DataForward) bool { return int(e.Child) >= len(pi.Children) })
	} else if fs.spill != nil {
		fs.spill.dataMap = nil
	}
	for _, e := range pi.SliceMap {
		declare(e.Src.Parent)
	}
	hops := slices.DeleteFunc(fs.hops(), func(h hop) bool {
		return h.flags&(hopParent|hopObserved|hopWasParent) == hopWasParent
	})
	fs.setHops(hops)
	for i := range hops {
		h := &hops[i]
		if h.flags&(hopParent|hopWasParent) == hopWasParent {
			h.flags &^= hopHeard | hopReported
			h.miss, h.downCount = 0, 0
		}
		h.flags &^= hopWasParent
	}
}

// dataMap appends the route's data map to dst in block order: the parent
// whose slice feeds each child.
func (fs *flowState) dataMap(dst []wire.DataForward) []wire.DataForward {
	if sp := fs.spill; sp != nil && sp.dataMap != nil {
		return append(dst, sp.dataMap...)
	}
	for c, hops := 0, fs.hops(); c < int(fs.route.nKids); c++ {
		for i := range hops {
			if h := &hops[i]; h.flags&hopFeeds != 0 && int(h.child) == c {
				dst = append(dst, wire.DataForward{Parent: h.id, Child: uint8(c)})
			}
		}
	}
	return dst
}

// noteRound updates the parents' miss streaks for a round forwarded with
// slices from `from`. Only a new packet revives a parent presumed down: a
// slice that arrived before the mark does not.
func (fs *flowState) noteRound(from []wire.NodeID) {
	for i, hops := 0, fs.hops(); i < len(hops); i++ {
		h := &hops[i]
		switch {
		case h.flags&hopParent == 0:
		case !slices.Contains(from, h.id):
			h.miss++
		case h.miss < deadParentStreak:
			h.miss = 0
		}
	}
}

// deadParents counts the parents presumed down.
func (fs *flowState) deadParents() (n int) {
	for _, h := range fs.hops() {
		if h.flags&hopParent != 0 && h.miss >= deadParentStreak {
			n++
		}
	}
	return n
}

// sweepHops calls report for every monitored hop silent for longer than
// timeout, at most once per timeout while the silence lasts; a hop that
// spoke again — data or heartbeat — clears its pending-report state. The
// declared parents are monitored when the flow has any; a last-stage flow
// has empty maps, so — exactly as for acks — its observed hops stand in.
// Nothing ever tells such a leaf that the source spliced a dead node out, so
// after obsReportLimit reports it forgets the address and the chatter ends
// (the node is re-adopted the moment it speaks again).
func (fs *flowState) sweepHops(now, timeout int64, report func(dead wire.NodeID)) {
	monitored := hopParent
	if fs.route.nParents == 0 {
		monitored = hopObserved
	}
	hops := fs.hops()
	for i := 0; i < len(hops); i++ {
		h := &hops[i]
		switch {
		case h.flags&monitored == 0:
		case h.flags&hopHeard == 0:
			// Seeded at decode; start the clock rather than report blind.
			h.flags |= hopHeard
			h.heardAt = now
		case now-h.heardAt <= timeout:
			h.flags &^= hopReported
			h.downCount = 0
		case h.flags&hopReported != 0 && now-h.downAt < timeout:
		default:
			h.flags |= hopReported
			h.downAt = now
			report(h.id)
			if monitored == hopObserved {
				if h.downCount++; h.downCount >= obsReportLimit {
					hops = slices.Delete(hops, i, i+1)
					fs.setHops(hops)
					i--
				}
			}
		}
	}
}
