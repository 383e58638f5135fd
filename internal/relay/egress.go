package relay

import (
	"errors"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/transport"
	"infoslicing/internal/wire"
)

// Two-stage egress pipeline (DESIGN.md rule 9).
//
// Under sh.mu a forwarding round is only *claimed*: stageRoundLocked does
// the round bookkeeping (forwarded flag, dead-parent streaks)
// and snapshots which slice goes to which child into the shard's staging
// arenas. Everything expensive — regeneration (GF(256) recombination),
// header/slot framing, CRC, and the transport hand-off — happens in
// runEgress after the shard lock is released, so timers, GC sweeps, and the
// inbound dispatch path never wait behind a slow peer or a recode.
//
// Frames are assembled in refcounted slabs (transport.SlabPool) and handed
// to the transport by reference when it implements overlay.OwnedSender, one
// batch per destination — N frames to the same child are one queue
// transaction and one writer wakeup instead of N. Transports without the
// owned path get the per-frame Send fallback (which copies), preserving
// behavior exactly.
//
// Lock order is egMu → sh.mu, never the reverse: callers must not hold
// sh.mu when they call runEgress. sh.egMu serializes concurrent egress
// runs (the shard worker racing a round timer); whichever run swaps the
// staging arenas first drains everything staged so far, and the loser
// finds them empty.

// egEmit is one child-bound slice claimed from a round under the shard
// lock. When regen is set the slice must be recombined off-lock from the
// round's surviving slices (snapshotted in the job's gather segment).
type egEmit struct {
	child int  // index into the job's pi.Children / pi.ChildFlows
	regen bool // recombine from survivors instead of forwarding a claim
	slice code.Slice
}

// egJob is one staged round: a view into the owning egState's emits and
// slices arenas plus the per-flow routing snapshot. pi is safe to read
// off-lock — info blocks are replaced wholesale (splice), never mutated in
// place but to drop the spent slice-map, which egress does not read.
type egJob struct {
	pi               *wire.PerNodeInfo
	seq              uint32
	d                int
	emitOff, emitN   int
	sliceOff, sliceN int
}

// egState is one staging buffer: flat arenas so a whole burst of rounds
// stages without allocating. The shard double-buffers two of these; swaps
// happen under sh.mu, draining under egMu only.
type egState struct {
	jobs   []egJob
	emits  []egEmit
	slices []code.Slice
}

// destBatch accumulates the frames bound for one destination within the
// current slab, so they leave as a single owned hand-off.
type destBatch struct {
	to   wire.NodeID
	bufs [][]byte
}

// runEgress drains staged rounds: recode, frame into refcounted slabs, and
// hand per-destination batches to the transport. Callers must NOT hold
// sh.mu. Safe to call with nothing staged (cheap no-op).
func (n *Node) runEgress(sh *shard) {
	sh.egMu.Lock()
	sh.mu.Lock()
	if len(sh.stage.jobs) == 0 {
		sh.mu.Unlock()
		sh.egMu.Unlock()
		return
	}
	sh.stage, sh.work = sh.work, sh.stage
	sh.mu.Unlock()

	st := &sh.work
	var slab *transport.Slab
	var packetsOut, sendDrops, regenerated int64
	for ji := range st.jobs {
		job := &st.jobs[ji]
		all := st.slices[job.sliceOff : job.sliceOff+job.sliceN]
		// Decodability is checked once per job, lazily: claims-only rounds
		// never pay for it.
		regenOK, regenChecked := false, false
		for ei := job.emitOff; ei < job.emitOff+job.emitN; ei++ {
			e := &st.emits[ei]
			out := e.slice
			if e.regen {
				if !regenChecked {
					regenChecked = true
					regenOK = code.Decodable(job.d, all)
				}
				if !regenOK {
					continue
				}
				fresh, err := code.RecombineInto(sh.egRegen, all, 1, sh.egRng)
				if err != nil {
					continue
				}
				sh.egRegen = fresh
				out = fresh[0]
				regenerated++
			}
			need := wire.DataFrameLen(len(out.Coeff), len(out.Payload))
			if slab == nil || slab.Room() < need {
				// Single-slab invariant: every open batch views the current
				// slab, so all of them flush before it rolls. Growing the
				// slab instead would detach the views already batched.
				if slab != nil {
					sendDrops += n.flushEgress(sh, slab)
					slab.Release()
				}
				slab = n.egPool.Get(need)
			}
			off := len(slab.Buf)
			slotLen := len(out.Coeff) + len(out.Payload) + 4
			slab.Buf = wire.AppendPacketHeader(slab.Buf, wire.MsgData,
				job.pi.ChildFlows[e.child], job.seq, uint8(job.d), uint16(slotLen), 1)
			slab.Buf = wire.AppendSlot(slab.Buf, out)
			sh.batchFrame(job.pi.Children[e.child], slab.Buf[off:len(slab.Buf):len(slab.Buf)])
			packetsOut++
		}
	}
	if slab != nil {
		sendDrops += n.flushEgress(sh, slab)
		slab.Release()
	}
	// Zero the drained arenas: stale entries would pin receive buffers and
	// routing blocks until the buffer's next (possibly distant) reuse.
	clear(st.jobs)
	clear(st.emits)
	clear(st.slices)
	st.jobs, st.emits, st.slices = st.jobs[:0], st.emits[:0], st.slices[:0]

	sh.mu.Lock()
	sh.stats.PacketsOut += packetsOut
	sh.stats.SendDrops += sendDrops
	sh.stats.Regenerated += regenerated
	sh.mu.Unlock()
	sh.egMu.Unlock()
}

// batchFrame files one framed packet under its destination. Destinations
// per drain are few (the children of the rounds in one burst), so a linear
// scan beats a map — and the batch structs and their bufs arenas are
// reused forever. Runs under egMu only.
func (sh *shard) batchFrame(to wire.NodeID, frame []byte) {
	b := sh.egBatches
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
	sh.egBatches = b
}

// flushEgress hands every open batch to the transport and retires them.
// All batches view slab: the owned path Retains once per batch (the
// transport releases when flushed or dropped), the fallback path copies via
// Send so no extra reference is needed. Returns the frames shed to full
// queues, for SendDrops. Runs under egMu only; caller still holds its own
// slab reference.
func (n *Node) flushEgress(sh *shard, slab *transport.Slab) (drops int64) {
	for i := range sh.egBatches {
		b := &sh.egBatches[i]
		if len(b.bufs) == 0 {
			continue
		}
		if n.owned != nil {
			slab.Retain()
			err := n.owned.SendOwned(n.id, b.to, b.bufs, slab.ReleaseFn)
			if err != nil && errors.Is(err, overlay.ErrSendQueueFull) {
				// Owned batching is all-or-nothing: a full queue shed the
				// whole batch.
				drops += int64(len(b.bufs))
			}
		} else {
			for _, fr := range b.bufs {
				if err := n.tr.Send(n.id, b.to, fr); err != nil && errors.Is(err, overlay.ErrSendQueueFull) {
					drops++
				}
			}
		}
		clear(b.bufs)
		b.bufs = b.bufs[:0]
	}
	sh.egBatches = sh.egBatches[:0]
	return drops
}
