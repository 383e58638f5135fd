package relay

import (
	"errors"
	"math/rand"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// Egress (DESIGN.md rule 9).
//
// Every frame a step or tick makes — a forwarded round's, a set-up wave's, an
// ack, heartbeat or ParentDown report — is framed into the shard's open slab
// and filed under its destination; nothing is sent until the driver's
// runEgress, so N frames to one child are one queue transaction instead of N.
// Frames drain in framing order; a child that hears a round before its flow's
// set-up packet holds it pending and replays it at decode (setup.go). Slabs
// are refcounted (transport.SlabPool) and each batch is handed over in one
// overlay.SendOwnedOrCopy: by reference to an overlay.OwnedSender, copied
// otherwise.
//
// The open slab outlives the step, so many small bursts share one. A slab
// that fills with frames still filed stays referenced, by its batches and the
// rolled list, until the drain: a step never sends. So that a step of
// ordinary size never holds two, a drained slab with less than minRoom left
// rolls at the drain. Between steps a shard holds at most one slab while the
// node runs (Close releases it).

// slabSize is the relay's egress slab. The first frame a shard sends, often a
// set-up wave, allocates one, so it is kept small enough not to slow set-up;
// minRoom is the room a drained slab must keep to stay open, more than a step
// framing a few rounds or a set-up wave claims.
const slabSize, minRoom = 32 << 10, 8 << 10

// egState is a shard's egress: the open slab and the append cursor into it,
// the slabs rolled since the last drain, the batches that view them, and the
// recombination scratch.
type egState struct {
	slab *transport.Slab
	// buf is the open slab's bytes, appended here rather than to slab.Buf:
	// the slice header the worker rewrites per frame stays on the shard's own
	// cache lines, away from the refcount transport writers hit on Release.
	buf     []byte
	rolled  []*transport.Slab
	batches []destBatch
	regen   []code.Slice
	rng     *rand.Rand
}

// destBatch accumulates the frames bound for one destination within one
// slab, so they leave as a single owned hand-off.
type destBatch struct {
	to   wire.NodeID
	slab *transport.Slab
	bufs [][]byte
}

// claim reserves size bytes at the open slab's tail, for the caller to frame
// packets into and file with batchFrame; a slab without room rolls first.
func (n *Node) claim(sh *shard, size int) []byte {
	eg := &sh.eg
	if cap(eg.buf)-len(eg.buf) < size { // full, or no slab open yet
		if len(eg.batches) > 0 {
			eg.rolled = append(eg.rolled, eg.slab) // frames filed from it wait for the drain
			eg.slab = nil
		}
		eg.close()
		eg.slab = n.egPool.Get(size)
		eg.buf = eg.slab.Buf
	}
	off := len(eg.buf)
	eg.buf = eg.buf[:off+size]
	return eg.buf[off : off+size : off+size]
}

// frameData frames one slice of round seq for a child: a slot as it arrived,
// CRC included, verified on arrival, or a regenerated slice (slot nil)
// encoded from out under a fresh CRC; the frame bytes are the same either way.
func (n *Node) frameData(sh *shard, to wire.NodeID, flow wire.FlowID, seq uint32, d int, slot []byte, out code.Slice) {
	slotLen := len(slot)
	if slot == nil {
		slotLen = wire.SlotLenFor(len(out.Coeff), len(out.Payload))
	}
	frame := n.claim(sh, wire.HeaderLen+slotLen)
	b := wire.AppendPacketHeader(frame[:0], wire.MsgData, flow, seq, uint8(d), uint16(slotLen), 1)
	if slot != nil {
		_ = append(b, slot...)
	} else {
		_ = wire.AppendSlot(b, out)
	}
	sh.batchFrame(to, frame)
}

// close drops the shard's own reference to the open slab; the slab returns
// to its pool once every transport holding a batch of it has released.
func (eg *egState) close() {
	if eg.slab != nil {
		eg.slab.Release()
		eg.slab, eg.buf = nil, nil
	}
}

// batchFrame files one framed packet, in the open slab, under its
// destination. Destinations per drain are few (the children of the rounds in
// one burst, a flow's parents), so a linear scan beats a map — and the batch
// structs and their bufs arenas are reused forever.
func (sh *shard) batchFrame(to wire.NodeID, frame []byte) {
	b := sh.eg.batches
	for i := range b {
		if b[i].to == to && b[i].slab == sh.eg.slab {
			b[i].bufs = append(b[i].bufs, frame)
			return
		}
	}
	if len(b) < cap(b) {
		b = b[:len(b)+1] // reuse the retired entry's bufs arena
	} else {
		b = append(b, destBatch{})
	}
	nb := &b[len(b)-1]
	nb.to, nb.slab = to, sh.eg.slab
	nb.bufs = append(nb.bufs[:0], frame)
	sh.eg.batches = b
}

// runEgress hands every batch to the transport, retires them and drops the
// references to the slabs rolled since the last drain. Each batch Retains its
// slab once, and the transport releases it when flushed, copied or dropped.
// Transports never block the caller (the non-blocking send contract): a peer
// whose queue is full sheds the batch it was handed and reports the advisory
// ErrSendQueueFull, which counts all its frames as send_drops.
func (n *Node) runEgress(sh *shard) {
	eg := &sh.eg
	for i := range eg.batches {
		b := &eg.batches[i]
		sh.ctr[cPacketsOut] += int64(len(b.bufs))
		b.slab.Retain()
		if err := overlay.SendOwnedOrCopy(n.tr, n.id, b.to, b.bufs, b.slab.ReleaseFn); errors.Is(err, overlay.ErrSendQueueFull) {
			sh.ctr[cSendDrops] += int64(len(b.bufs))
		}
		clear(b.bufs)
		b.bufs, b.slab = b.bufs[:0], nil
	}
	eg.batches = eg.batches[:0]
	for i, s := range eg.rolled {
		s.Release()
		eg.rolled[i] = nil
	}
	eg.rolled = eg.rolled[:0]
	if cap(eg.buf)-len(eg.buf) < minRoom {
		eg.close()
	}
}
