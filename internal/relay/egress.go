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
// A round forwarded while a burst is dispatched is framed at once — header,
// then each slot as it arrived or, where a slice is missing, a recoded one
// under a fresh CRC — into the shard's open slab, and the frame filed under
// its destination; nothing is sent until runEgress at the tail of the
// burst, so N frames to the same child are one queue transaction and one
// writer wakeup instead of N.
//
// Slabs are refcounted (transport.SlabPool) and handed to the transport by
// reference when it implements overlay.OwnedSender. Transports without the
// owned path get the per-frame Send fallback (which copies), preserving
// behavior exactly.

// egState is a shard's egress: the slab the current burst frames into, the
// batches that view it, and the recombination scratch.
type egState struct {
	slab    *transport.Slab
	batches []destBatch
	regen   []code.Slice
	rng     *rand.Rand
}

// destBatch accumulates the frames bound for one destination within the
// current slab, so they leave as a single owned hand-off.
type destBatch struct {
	to   wire.NodeID
	bufs [][]byte
}

// frameData frames one slice of round seq for a child into the open slab.
// A slice forwarded as it arrived is copied verbatim — its slot, CRC
// included, was verified on arrival; only a regenerated slice (slot nil)
// is encoded from out under a fresh CRC. The frame bytes are the same
// either way.
func (n *Node) frameData(sh *shard, to wire.NodeID, flow wire.FlowID, seq uint32, d int, slot []byte, out code.Slice) {
	eg := &sh.eg
	slotLen := len(slot)
	if slot == nil {
		slotLen = wire.SlotLenFor(len(out.Coeff), len(out.Payload))
	}
	need := wire.HeaderLen + slotLen
	if eg.slab == nil || eg.slab.Room() < need {
		// Single-slab invariant: every open batch views the current slab, so
		// all of them flush before it rolls. Growing the slab instead would
		// detach the views already batched.
		n.runEgress(sh)
		eg.slab = n.egPool.Get(need)
	}
	slab := eg.slab
	off := len(slab.Buf)
	slab.Buf = wire.AppendPacketHeader(slab.Buf, wire.MsgData, flow, seq, uint8(d), uint16(slotLen), 1)
	if slot != nil {
		slab.Buf = append(slab.Buf, slot...)
	} else {
		slab.Buf = wire.AppendSlot(slab.Buf, out)
	}
	sh.batchFrame(to, slab.Buf[off:len(slab.Buf):len(slab.Buf)])
}

// batchFrame files one framed packet under its destination. Destinations
// per drain are few (the children of the rounds in one burst), so a linear
// scan beats a map — and the batch structs and their bufs arenas are
// reused forever.
func (sh *shard) batchFrame(to wire.NodeID, frame []byte) {
	b := sh.eg.batches
	for i := range b {
		if b[i].to == to {
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
	nb.to = to
	nb.bufs = append(nb.bufs[:0], frame)
	sh.eg.batches = b
}

// runEgress hands every open batch to the transport, retires them and lets
// the slab go. All batches view the slab: the owned path Retains once per
// batch (the transport releases when flushed or dropped), the fallback path
// copies via send so no extra reference is needed. Frames shed to full queues
// count as SendDrops. Safe to call with nothing framed (cheap no-op).
func (n *Node) runEgress(sh *shard) {
	eg := &sh.eg
	if eg.slab == nil {
		return
	}
	for i := range eg.batches {
		b := &eg.batches[i]
		if n.owned != nil {
			sh.stats.PacketsOut += int64(len(b.bufs))
			eg.slab.Retain()
			err := n.owned.SendOwned(n.id, b.to, b.bufs, eg.slab.ReleaseFn)
			if err != nil && errors.Is(err, overlay.ErrSendQueueFull) {
				// Owned batching is all-or-nothing: a full queue shed the
				// whole batch.
				sh.stats.SendDrops += int64(len(b.bufs))
			}
		} else {
			for _, fr := range b.bufs {
				n.send(sh, b.to, fr)
			}
		}
		clear(b.bufs)
		b.bufs = b.bufs[:0]
	}
	eg.batches = eg.batches[:0]
	eg.slab.Release()
	eg.slab = nil
}
