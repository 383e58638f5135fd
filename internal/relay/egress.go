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
//
// The open slab outlives the burst: the next burst appends behind the frames
// already handed out, and the slab rolls only when it is full. A shard
// therefore holds at most one open slab while the node runs (Close releases
// it), and many small bursts share one slab instead of each claiming a
// whole one and parking it in the pool.

// egState is a shard's egress: the open slab and the append cursor into it,
// the batches that view it, and the recombination scratch.
type egState struct {
	slab *transport.Slab
	// buf is the open slab's bytes, appended here rather than to slab.Buf:
	// the slice header the worker rewrites per frame stays on the shard's own
	// cache lines, away from the refcount transport writers hit on Release.
	buf     []byte
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
	if cap(eg.buf)-len(eg.buf) < need { // full, or no slab open yet
		// Single-slab invariant: every open batch views the current slab, so
		// all of them flush before it rolls. Growing the slab instead would
		// detach the views already handed out.
		n.runEgress(sh)
		eg.close()
		eg.slab = n.egPool.Get(need)
		eg.buf = eg.slab.Buf
	}
	off := len(eg.buf)
	eg.buf = wire.AppendPacketHeader(eg.buf, wire.MsgData, flow, seq, uint8(d), uint16(slotLen), 1)
	if slot != nil {
		eg.buf = append(eg.buf, slot...)
	} else {
		eg.buf = wire.AppendSlot(eg.buf, out)
	}
	sh.batchFrame(to, eg.buf[off:len(eg.buf):len(eg.buf)])
}

// close drops the shard's own reference to the open slab; the slab returns
// to its pool once every transport holding a batch of it has released.
func (eg *egState) close() {
	if eg.slab != nil {
		eg.slab.Release()
		eg.slab, eg.buf = nil, nil
	}
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

// runEgress hands every open batch to the transport and retires them; the
// slab stays open for the next burst. All batches view the slab: the owned
// path Retains once per batch (the transport releases when flushed or
// dropped), the fallback path copies via send so no extra reference is
// needed. Frames shed to full queues count as send_drops. Safe to call with
// nothing framed (cheap no-op).
func (n *Node) runEgress(sh *shard) {
	eg := &sh.eg
	for i := range eg.batches {
		b := &eg.batches[i]
		if n.owned != nil {
			sh.ctr[cPacketsOut] += int64(len(b.bufs))
			eg.slab.Retain()
			err := n.owned.SendOwned(n.id, b.to, b.bufs, eg.slab.ReleaseFn)
			if err != nil && errors.Is(err, overlay.ErrSendQueueFull) {
				// Owned batching is all-or-nothing: a full queue shed the
				// whole batch.
				sh.ctr[cSendDrops] += int64(len(b.bufs))
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
}
