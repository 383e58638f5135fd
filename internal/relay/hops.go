package relay

import (
	"slices"

	"infoslicing/internal/wire"
)

// hop is one record of a flow's hop table: what the flow knows about one
// previous hop. Before establishment a record exists for every sender heard
// (at most maxObservedHops), for set-up staging; from establishment on, for
// exactly the parents the routing block names. It is found by a linear scan
// once per packet — a flow has d' parents. Stamps are nanoseconds on the
// node's clock since Node.epoch, so a record is 32 bytes and holds no pointer.
type hop struct {
	id    wire.NodeID
	flags uint8
	child uint8 // where this parent's data slice goes, under hopFeeds: the data map
	// miss counts the consecutive rounds a parent has missed; at
	// deadParentStreak it is presumed down and rounds stop waiting for it,
	// until it speaks again.
	miss uint32
	// heardAt is the last packet's arrival, or the instant the block named a
	// parent not yet heard; downAt the last report of this hop's silence
	// (valid under hopReported).
	heardAt, downAt int64
}

const (
	hopReported uint8 = 1 << iota // downAt is set
	hopFeeds                      // child is set
	hopStale                      // scratch of declareParents: not named by the block
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
// index of its record, or -1 when the flow keeps none: an established flow
// knows its parents from its block, so a stranger gets no record, and before
// that, sender ids being claimed, not proven, only maxObservedHops senders
// are kept per flow. Unrecorded senders' packets are still processed — the
// cap bounds state, not traffic.
func (fs *flowState) observe(from wire.NodeID, now int64) int {
	i := fs.hopIndex(from)
	if i < 0 {
		if fs.has(routeUp) || len(fs.hops()) >= maxObservedHops {
			return -1
		}
		i = len(fs.hops())
		fs.setHops(append(fs.hops(), hop{id: from}))
	}
	fs.hops()[i].heardAt = now
	return i
}

// declareParents makes the parents named by pi's maps the flow's hop table
// and folds the data map into their records. A parent already recorded keeps
// its liveness state — at establishment, when it was heard; across a splice,
// all of it. One not yet recorded starts its liveness clock at now, so a
// parent that never speaks is detected livenessBeats heartbeats later, not
// reported blind. Every other record goes: the senders set-up staging
// observed, and the parents a splice removes. The data map folds when each
// parent feeds one child and its entries run in child order, as the
// builder's do; any other is spilled.
func (fs *flowState) declareParents(pi *wire.PerNodeInfo, now int64) {
	for i, hops := 0, fs.hops(); i < len(hops); i++ {
		hops[i].flags = hops[i].flags&^hopFeeds | hopStale
	}
	declare := func(p wire.NodeID) *hop {
		i := fs.hopIndex(p)
		if i < 0 {
			i = len(fs.hops())
			fs.setHops(append(fs.hops(), hop{id: p, heardAt: now}))
		}
		h := &fs.hops()[i]
		h.flags &^= hopStale
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
	fs.setHops(slices.DeleteFunc(fs.hops(), func(h hop) bool { return h.flags&hopStale != 0 }))
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
		switch h := &hops[i]; {
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
		if h.miss >= deadParentStreak {
			n++
		}
	}
	return n
}

// sweepHops calls report for every parent silent for longer than timeout, at
// most once per timeout while the silence lasts; a parent that spoke again —
// data or heartbeat — clears its pending-report state.
func (fs *flowState) sweepHops(now, timeout int64, report func(dead wire.NodeID)) {
	for i, hops := 0, fs.hops(); i < len(hops); i++ {
		switch h := &hops[i]; {
		case now-h.heardAt <= timeout:
			h.flags &^= hopReported
		case h.flags&hopReported != 0 && now-h.downAt < timeout:
		default:
			h.flags |= hopReported
			h.downAt = now
			report(h.id)
		}
	}
}
