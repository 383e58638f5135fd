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
	sh.floodUpstream(fs, wire.AppendPacketHeader(n.claim(sh, wire.HeaderLen)[:0], wire.MsgAck, fs.flow, 0, 0, 0, 0))
}

// setupStage is a flow's set-up phase: each recorded hop's set-up packet, held
// until the wave is forwarded, and the wave's geometry, adopted (like d) from
// the packets whose own slices decode into a checksummed routing block — a
// forged claim only labels its packet — with the block's slice map and any
// data that raced ahead of the decode. Senders without a hop record stage nothing.
type setupStage struct {
	pkts     []staged
	sliceMap []wire.SliceForward
	pending  []pendingPacket
	slotLen  uint16
	nSlots   uint8
}

type pendingPacket struct {
	from  wire.NodeID
	seq   uint32
	slots [][]byte // views that pin the receive buffer
}

// staged is one hop's set-up packet: the geometry its header claimed and its
// slot area, a view that pins the receive buffer.
type staged struct {
	from      wire.NodeID
	d, nSlots uint8
	slotLen   uint16
	slots     []byte
}

// staging: from the first set-up packet staged until the wave leaves.
func (fs *flowState) staging() bool { return fs.tail != nil && len(fs.tail.stage.pkts) > 0 }

func (st *setupStage) find(from wire.NodeID) *staged {
	if i := slices.IndexFunc(st.pkts, func(p staged) bool { return p.from == from }); i >= 0 {
		return &st.pkts[i]
	}
	return nil
}

// handleSetup stages one hop's set-up packet, decodes the routing block as
// soon as the packets in hand allow, and forwards the wave when every parent's
// packet is in or SetupWait after the decode, whichever comes first.
func (n *Node) handleSetup(sh *shard, fs *flowState, hi int, pkt *wire.Packet) {
	if hi < 0 || fs.has(routeUp) && !fs.staging() || fs.staging() && fs.tail.stage.find(fs.hops()[hi].id) != nil {
		sh.ctr[cSetupIgnored]++ // past the observation cap, late (the set-up phase is over), or a duplicate
		return
	}
	st := &sh.tailFor(fs).stage
	st.pkts = append(st.pkts, staged{fs.hops()[hi].id, pkt.CoeffLen, uint8(len(pkt.Slots)), pkt.SlotLen, pkt.SlotArea()})
	if !fs.has(routeUp) && !n.establish(sh, fs, int(pkt.CoeffLen)) {
		return // not yet decodable; if it never is, GC reaps the flow
	}
	switch {
	case fs.has(routeSpliced) || fs.route.nKids == 0:
		// A spliced-in replacement (its block came straight from the source
		// endpoints, its children were patched directly) or a leaf: no wave
		// to forward, so the setup state, and the buffers it pins, is done.
		sh.dropSetup(fs)
	case !slices.ContainsFunc(fs.hops(), func(h hop) bool {
		return h.flags&hopParent != 0 && st.find(h.id) == nil
	}):
		n.forwardSetup(sh, fs) // every declared parent's packet is in
	case fs.due[dlSetup] == 0:
		sh.setDeadline(fs, dlSetup, fs.lastActive+int64(n.cfg.SetupWait)) // lastActive is this packet's arrival
	}
}

// dropSetup ends the set-up phase: the staged packets, the receive buffers
// they pin and the slice map go, and the tail if no other phase is live.
func (sh *shard) dropSetup(fs *flowState) {
	st := &fs.tail.stage
	clear(st.pkts)
	st.pkts, st.sliceMap = st.pkts[:0], st.sliceMap[:0]
	sh.shedTail(fs)
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
	var geom *staged // the group's first packet with a valid own slice
	st := &fs.tail.stage
	for i := range st.pkts {
		p := &st.pkts[i]
		if int(p.d) != d || p.nSlots == 0 {
			continue
		}
		if s, err := wire.DecodeSlot(p.slots[:p.slotLen], d); err == nil {
			if own = append(own, s); geom == nil {
				geom = p
			}
		}
	}
	sh.ownScratch = own[:0]
	defer clear(own) // the views pin receive buffers
	if len(own) < d {
		return false
	}
	blob, err := code.DecodeTo(d, sh.blob[:0], own)
	if err != nil {
		return false
	}
	sh.blob = blob
	pi := &sh.info
	if wire.UnmarshalPerNodeInfoInto(pi, blob) != nil {
		return false
	}
	fs.setRoute(pi)
	fs.route.d, st.slotLen, st.nSlots = uint8(d), geom.slotLen, geom.nSlots
	st.sliceMap = append(st.sliceMap[:0], pi.SliceMap...)
	sh.ctr[cFlowsEstablished]++
	n.flowEstablished(sh, fs)
	fs.declareParents(pi, fs.lastActive, false)
	n.dirAdd(sh, fs) // its children's acks and reports now find it

	if pi.Receiver {
		n.sendAck(sh, fs)
	}
	// Process any data that raced ahead of the decode. A child that hears its
	// rounds before this node's set-up packet holds them pending in turn.
	for _, pd := range st.pending {
		n.handleData(sh, fs, pd.from, fs.hopIndex(pd.from), pd.seq, pd.slots)
	}
	st.pending = nil
	return true
}

// forwardSetup frames one packet per child straight into the shard's
// egress slab: all of them are padded in one go, then each slice-map slot is
// copied from the retained packet to its place and stripped of one
// scrambling layer where it lies. Everything else — including slots whose
// source packet never arrived — stays padding: packet size is constant (§9.4c).
func (n *Node) forwardSetup(sh *shard, fs *flowState) {
	sh.setDeadline(fs, dlSetup, 0)
	kids, flows := fs.kids()
	st := &fs.tail.stage
	slotLen, nSlots := int(st.slotLen), int(st.nSlots)
	frame := wire.HeaderLen + nSlots*slotLen
	buf := n.claim(sh, len(kids)*frame)
	wire.FillRandom(buf, sh.rng)
	for c, flow := range flows {
		wire.AppendPacketHeader(buf[c*frame:c*frame], wire.MsgSetup, flow, 0, fs.route.d, st.slotLen, nSlots)
	}
	for _, e := range st.sliceMap {
		src := st.find(e.Src.Parent)
		if src == nil || int(e.Child) >= len(kids) || int(e.DstSlot) >= nSlots ||
			e.Src.Slot >= src.nSlots || src.slotLen != st.slotLen {
			continue // lost upstream, or a malformed or cross-phase packet: the padding stays
		}
		dst := buf[int(e.Child)*frame+wire.HeaderLen+int(e.DstSlot)*slotLen:][:slotLen]
		copy(dst, src.slots[int(e.Src.Slot)*slotLen:])
		e.Unscramble.Invert(dst)
	}
	for c, child := range kids {
		sh.batchFrame(child, buf[c*frame:][:frame:frame])
	}
	sh.dropSetup(fs)
}
