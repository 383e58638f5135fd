package relay

import (
	"slices"

	"infoslicing/internal/code"
	"infoslicing/internal/wire"
)

// maxPendingData bounds the data packets a flow holds while its routing
// block is still undecoded.
const maxPendingData = 1024

// handleData files the slice of a data packet (its sequence number and slots)
// under its round and forwards or decodes the round when it is complete.
func (n *Node) handleData(sh *shard, fs *flowState, from wire.NodeID, hi int, seq uint32, slots [][]byte) {
	if !fs.has(routeUp) {
		// Data raced ahead of setup; buffer a bounded amount.
		if st := &sh.tailFor(fs).stage; len(st.pending) < maxPendingData {
			st.pending = append(st.pending, pendingPacket{from, seq, slices.Clone(slots)})
		} else {
			sh.ctr[cPendingDropped]++
		}
		return
	}
	if len(slots) < 1 || fs.route.nKids == 0 && !fs.has(routeReceiver) {
		sh.ctr[cUnwantedSlices]++ // a last-stage bystander has no use for the slice: hold nothing
		return
	}
	sl, err := wire.DecodeSlot(slots[0], int(fs.route.d))
	if err != nil {
		sh.ctr[cBadSlots]++
		return
	}
	if hi >= 0 {
		fs.hops()[hi].miss = 0 // a parent that speaks is alive, however late its slice
	}
	var forward, decode bool
	s := n.slotFor(sh, fs, seq)
	if s != nil {
		forward, decode = fs.needs(seq, s)
	}
	if !forward && !decode {
		sh.ctr[cLateSlices]++ // below the window, or a round already finished
		return
	}
	if slices.Contains(s.from, from) {
		sh.ctr[cDuplicateSlices]++
		return
	}
	if s.deadline == 0 {
		s.deadline = fs.lastActive + int64(n.cfg.RoundWait) // lastActive is this packet's arrival
		sh.ctr[cRoundsOpened]++
	}
	sh.ctr[cSlicesFiled]++
	if s.got == nil {
		k := len(fs.hops())
		s.from, s.got, s.raw = make([]wire.NodeID, 0, k), make([]code.Slice, 0, k), make([][]byte, 0, k)
	}
	s.from, s.got, s.raw = append(s.from, from), append(s.got, sl), append(s.raw, slots[0])
	if decode {
		n.tryDeliver(sh, fs, seq, s)
	}
	if forward && len(s.got) >= len(fs.hops())-fs.deadParents() {
		n.stageRound(sh, fs, seq, s)
	}
	sh.advance(fs)
	if w := &fs.win; w.low != w.high && fs.due[dlRound] == 0 {
		sh.setDeadline(fs, dlRound, fs.lastActive+int64(n.cfg.RoundWait))
	}
}

// stageRound forwards a round: its bookkeeping, then one frame per data-map
// entry into the shard's egress — the entry's parent's slot as it arrived,
// or a slice recombined from the survivors where that parent sent nothing.
func (n *Node) stageRound(sh *shard, fs *flowState, seq uint32, r *roundSlot) {
	r.forwarded = true
	fs.noteRound(r.from)
	kids, flows := fs.kids()
	// Decodability is checked once per round, lazily: a round with every
	// slice in never pays for it.
	regenOK, regenChecked := false, false
	sh.feeds = fs.dataMap(sh.feeds[:0])
	for _, e := range sh.feeds {
		var out code.Slice
		slot, ok := r.slot(e.Parent)
		if !ok {
			// Missing parent: only a node with recode rights holds spare
			// degrees of freedom to serve this child from (§4.4.1).
			if !regenChecked {
				regenChecked = true
				regenOK = fs.has(routeRecode) && code.Decodable(int(fs.route.d), r.got)
			}
			if !regenOK {
				continue
			}
			fresh, err := code.RecombineInto(sh.eg.regen, r.got, 1, sh.eg.rng)
			if err != nil {
				continue
			}
			sh.eg.regen = fresh
			out = fresh[0]
			sh.ctr[cRegenerated]++
		}
		n.frameData(sh, kids[e.Child], flows[e.Child], seq, int(fs.route.d), slot, out)
	}
	// The frames hold copies; the slot's views go the moment no decode is
	// waiting on them.
	if _, decode := fs.needs(seq, r); !decode {
		r.release()
	}
}
