package relay

import (
	"slices"

	"infoslicing/internal/code"
	"infoslicing/internal/wire"
)

// sendAck emits this flow's establishment acknowledgment (§7.4:
// originated by the destination, re-stamped hop by hop) to every previous
// hop.
func (n *Node) sendAck(sh *shard, fs *flowState) {
	fs.ackSent = true
	sh.pktBuf = wire.AppendPacketHeader(sh.pktBuf[:0], wire.MsgAck, fs.flow, 0, 0, 0, 0)
	n.floodUpstream(sh, fs, sh.pktBuf)
}

// handleSetup retains one hop's set-up packet, decodes the routing block as
// soon as the packets in hand allow, and forwards the wave when every parent's
// packet is in or SetupWait after the decode, whichever comes first.
func (n *Node) handleSetup(sh *shard, fs *flowState, hi int, pkt *wire.Packet) {
	if fs.setupSent || hi < 0 || fs.hops[hi].setup != nil {
		sh.ctr[cSetupIgnored]++ // late (already forwarded), past the observation cap, or a duplicate
		return
	}
	h := &fs.hops[hi]
	// Kept until the wave is forwarded (the view pins the receive buffer).
	h.setup, h.setupD, h.setupSlotLen, h.setupSlots = pkt.SlotArea(), pkt.CoeffLen, pkt.SlotLen, uint8(len(pkt.Slots))
	if fs.info == nil && !n.establish(sh, fs, int(pkt.CoeffLen)) {
		return // not yet decodable; if it never is, GC reaps the flow
	}
	switch {
	case fs.info.Spliced || len(fs.info.Children) == 0:
		// A spliced-in replacement (its block came straight from the source
		// endpoints, its children were patched directly) or a leaf: no wave
		// to forward, so the setup state, and the buffers it pins, is done.
		fs.setupSent = true
		fs.dropSetup()
	case fs.setupStaged():
		n.forwardSetup(sh, fs)
	case fs.due[dlSetup] == 0:
		sh.setDeadline(fs, dlSetup, n.stamp(fs.lastActive)+int64(n.cfg.SetupWait)) // lastActive is this packet's arrival
	}
}

// establish tries to decode the flow's routing block from the set-up
// packets that claim split factor d (the newest packet's: no other group can
// have become decodable). Slot 0 of each carries one of our own slices, if it
// validates; padding and slices lost upstream do not. The claim becomes
// authoritative only when the group decodes into a block that passes magic
// and checksum.
func (n *Node) establish(sh *shard, fs *flowState, d int) bool {
	if d < 1 || d > 64 {
		return false
	}
	own := sh.ownScratch[:0]
	var geom *hop // the group's first packet with a valid own slice
	for i := range fs.hops {
		h := &fs.hops[i]
		if h.setup == nil || int(h.setupD) != d || h.setupSlots == 0 {
			continue
		}
		if s, err := wire.DecodeSlot(h.setup[:h.setupSlotLen], d); err == nil {
			if own = append(own, s); geom == nil {
				geom = h
			}
		}
	}
	sh.ownScratch = own[:0]
	defer clear(own) // the views pin receive buffers
	if len(own) < d {
		return false
	}
	blob, err := code.Decode(d, own)
	if err != nil {
		return false
	}
	pi, err := wire.UnmarshalPerNodeInfo(blob)
	if err != nil {
		return false
	}
	fs.info = pi
	fs.d, fs.slotLen, fs.nSlots = d, int(geom.setupSlotLen), int(geom.setupSlots)
	sh.ctr[cFlowsEstablished]++
	fs.declareParents(pi, n.stamp(fs.lastActive), false)
	n.dirAdd(sh, fs, pi) // its children's acks and reports now find it

	if pi.Receiver {
		n.sendAck(sh, fs)
	}
	// Process any data that raced ahead of the decode.
	for _, pd := range fs.pendingData {
		n.handleData(sh, fs, pd.from, fs.hopIndex(pd.from), pd.pkt)
	}
	fs.pendingData = nil
	return true
}

// forwardSetup frames one packet per child straight into the shard's
// framing buffer: all of it is padded in one go, then each slice-map slot is
// copied from the retained packet to its place and stripped of one
// scrambling layer where it lies. Everything else — including slots whose
// source packet never arrived — stays padding: packet size is constant (§9.4c).
func (n *Node) forwardSetup(sh *shard, fs *flowState) {
	fs.setupSent = true
	sh.setDeadline(fs, dlSetup, 0)
	pi := fs.info
	frame := wire.HeaderLen + fs.nSlots*fs.slotLen
	buf := slices.Grow(sh.pktBuf[:0], len(pi.Children)*frame)[:len(pi.Children)*frame]
	sh.pktBuf = buf
	wire.FillRandom(buf, sh.rng)
	for c := range pi.Children {
		wire.AppendPacketHeader(buf[c*frame:c*frame], wire.MsgSetup, pi.ChildFlows[c], 0,
			uint8(fs.d), uint16(fs.slotLen), fs.nSlots)
	}
	for _, e := range pi.SliceMap {
		hi := fs.hopIndex(e.Src.Parent)
		if hi < 0 || int(e.Child) >= len(pi.Children) || int(e.DstSlot) >= fs.nSlots {
			continue
		}
		src := &fs.hops[hi]
		if src.setup == nil || e.Src.Slot >= src.setupSlots || int(src.setupSlotLen) != fs.slotLen {
			continue // lost upstream, or a malformed or cross-phase packet: the padding stays
		}
		dst := buf[int(e.Child)*frame+wire.HeaderLen+int(e.DstSlot)*fs.slotLen:][:fs.slotLen]
		copy(dst, src.setup[int(e.Src.Slot)*fs.slotLen:])
		e.Unscramble.Invert(dst)
	}
	for c, ch := range pi.Children {
		n.send(sh, ch, buf[c*frame:][:frame])
	}
	fs.dropSetup()
}
