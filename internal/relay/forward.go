package relay

import (
	"slices"

	"infoslicing/internal/code"
	"infoslicing/internal/wire"
)

// handleData runs on the shard worker with sh.mu held.
func (n *Node) handleData(sh *shard, fs *flowState, from wire.NodeID, hi int, pkt *wire.Packet) {
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
	if hi >= 0 {
		fs.hops[hi].miss = 0 // a parent that speaks is alive, however late its slice
	}
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
		k := len(fs.hops)
		s.from, s.got = make([]wire.NodeID, 0, k), make([]code.Slice, 0, k)
	}
	s.from, s.got = append(s.from, from), append(s.got, sl)
	if decode {
		n.tryDeliverLocked(sh, fs.flow, fs, seq, s)
	}
	if forward && len(s.got) >= fs.nParents-fs.deadParents() {
		n.stageRoundLocked(sh, fs, seq, s)
	}
	fs.advanceLocked()
	if w := &fs.win; fwd && w.low != w.high {
		n.armRoundTimerLocked(sh, fs, n.cfg.RoundWait)
	}
}

// stageRoundLocked claims a round for forwarding: bookkeeping that must see
// shard state stays here, the recode/frame/send work is described into the
// staging arenas for runEgress. Runs with sh.mu held.
func (n *Node) stageRoundLocked(sh *shard, fs *flowState, seq uint32, r *roundSlot) {
	r.forwarded = true
	fs.noteRound(r.from)
	pi := fs.info
	st := &sh.stage
	job := egJob{pi: pi, seq: seq, d: fs.d, emitOff: len(st.emits), sliceOff: len(st.slices)}
	needRegen := false
	for _, e := range pi.DataMap {
		if int(e.Child) >= len(pi.Children) {
			continue
		}
		if s, ok := r.slice(e.Parent); ok {
			st.emits = append(st.emits, egEmit{child: int(e.Child), slice: s})
		} else if pi.Recode {
			st.emits = append(st.emits, egEmit{child: int(e.Child), regen: true})
			needRegen = true
		}
		// Missing parent and no recode rights: this child's slice cannot be
		// served (§4.4.1 — only recoding nodes hold spare degrees of freedom).
	}
	job.emitN = len(st.emits) - job.emitOff
	if needRegen {
		// Snapshot the survivors: the decodability check and recombination
		// run off-lock, after the slot has given up its views.
		st.slices = append(st.slices, r.got...)
		job.sliceN = len(st.slices) - job.sliceOff
	}
	if job.emitN > 0 {
		st.jobs = append(st.jobs, job)
	}
	// The claimed views live on in the staging arena until egress drains
	// it; the slot's own go the moment no decode is waiting on them.
	if _, decode := fs.needs(seq, r); !decode {
		r.release()
	}
}
