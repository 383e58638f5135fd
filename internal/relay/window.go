package relay

import (
	"slices"

	"infoslicing/internal/code"
	"infoslicing/internal/wire"
)

// A flow's data rounds live in one sliding window: a power-of-two ring of
// reusable slots covering [low, low+len(ring)), in the flow's tail, allocated by
// the first slice the flow has to hold and sized by work in flight, never by history:
// one slot while rounds complete in order, more when they overlap, none once idle.
// A round drops its slice views the instant nothing needs them (forwarded,
// for a relay; decoded, for a receiver), low advances over finished rounds,
// and a slice for anything below low is a counted late drop. A round opened
// by a filed slice counts as done or expired when its slot recycles. The ring
// doubles only to keep a round still needed; past maxWindow the oldest
// rounds are written off instead. Round deadlines share the flow's one
// dlRound wait: it runs out at the earliest stamp still ahead, forwards what
// is due and re-arms — at most one queue operation per RoundWait in steady
// traffic.
type roundWindow struct {
	low, high uint32 // rounds tracked: low ≤ high ≤ low+len(ring); low ≠ high ⇒ a ring
}

const minWindow, maxWindow = 1, 4096

// roundSlot is one round. A zero deadline means no slice of it has been
// seen: a hole below some later round.
type roundSlot struct {
	// from[i] sent got[i], a view into raw[i], the slot bytes that arrived
	// (coeff ‖ payload ‖ the CRC they passed). All three are reused round
	// after round; parents ≤ d', so lookups scan.
	from      []wire.NodeID
	got       []code.Slice
	raw       [][]byte
	chunk     []byte // decoded, awaiting its turn in the stream
	deadline  int64  // first slice + RoundWait, a stamp; zero until the round is opened
	forwarded bool   // staged for egress, or written off as lost
	decoded   bool
}

// slot returns the slot bytes parent p sent for this round, if it has.
func (s *roundSlot) slot(p wire.NodeID) ([]byte, bool) {
	if i := slices.Index(s.from, p); i >= 0 {
		return s.raw[i], true
	}
	return nil, false
}

// release drops the slot's slice views, which pin whole receive buffers.
func (s *roundSlot) release() {
	clear(s.got)
	clear(s.raw)
	s.from, s.got, s.raw = s.from[:0], s.got[:0], s.raw[:0]
}

// recycle readies round seq's slot for another round, counting how an
// opened one ended.
func (sh *shard) recycle(fs *flowState, seq uint32) {
	s := fs.at(seq)
	switch {
	case s.deadline == 0: // a hole: never opened
	case s.forwarded || s.decoded:
		sh.ctr[cRoundsDone]++
	default:
		sh.ctr[cRoundsExpired]++
		sh.note(EvRoundExpired, fs.flow, uint64(seq))
	}
	s.release()
	*s = roundSlot{from: s.from, got: s.got, raw: s.raw}
}

func (fs *flowState) at(seq uint32) *roundSlot {
	return &fs.tail.ring[seq&uint32(len(fs.tail.ring)-1)]
}

// openRounds counts the rounds opened and not yet recycled.
func (fs *flowState) openRounds() (n int64) {
	for seq := fs.win.low; seq != fs.win.high; seq++ {
		if fs.at(seq).deadline != 0 {
			n++
		}
	}
	return n
}

// needs reports what the flow still wants from round seq: to forward it,
// and to decode it. A round that needs neither holds no slice views.
func (fs *flowState) needs(seq uint32, s *roundSlot) (forward, decode bool) {
	forward = fs.route.nKids > 0 && !s.forwarded
	decode = fs.has(routeReceiver) && s.chunk == nil && int32(seq-fs.nextSeq) >= 0
	return
}

// slotFor returns the slot tracking round seq, making room for it (which
// may re-seat the ring: older slot pointers die), or nil below the window.
func (n *Node) slotFor(sh *shard, fs *flowState, seq uint32) *roundSlot {
	w, t := &fs.win, sh.tailFor(fs)
	if t.ring == nil {
		t.ring = make([]roundSlot, minWindow)
	}
	off := seq - w.low
	switch size := len(t.ring); {
	case int32(off) < 0:
		return nil
	case off >= maxWindow:
		// Out of reach even fully grown: slide, writing off the oldest.
		n.slide(sh, fs, seq-uint32(size)+1)
	case off >= uint32(size):
		for uint32(size) <= off {
			size <<= 1
		}
		ns := make([]roundSlot, size)
		for q := w.low; q != w.high; q++ {
			ns[q&uint32(size-1)] = *fs.at(q)
		}
		t.ring = ns
	}
	if int32(seq-w.high) >= 0 {
		w.high = seq + 1
	}
	return fs.at(seq)
}

// slide moves the window base up to low, writing off every round it
// passes, O(1) each. A receiver's stream skips with them.
func (n *Node) slide(sh *shard, fs *flowState, low uint32) {
	w := &fs.win
	for ; w.low != w.high && w.low != low; w.low++ {
		if fs.at(w.low).chunk != nil {
			fs.tail.rx.buffered--
		}
		sh.recycle(fs, w.low)
	}
	w.low = low
	if int32(w.high-low) < 0 {
		w.high = low
	}
	if fs.has(routeReceiver) && int32(low-fs.nextSeq) > 0 {
		n.skipStream(sh, fs, low)
	}
}

// advance recycles the flow's rounds at low that nothing is waiting on.
func (sh *shard) advance(fs *flowState) {
	for w := &fs.win; w.low != w.high; w.low++ {
		s := fs.at(w.low)
		if fwd, dec := fs.needs(w.low, s); fwd || dec || s.chunk != nil {
			return
		}
		sh.recycle(fs, w.low)
	}
}

// roundDeadline is what the dlRound wait runs: a round whose RoundWait has
// run out forwards with what it has, and a hole is written off once a later
// round is a gap wait old — when the receiver would skip it anyway, and after
// an upstream relay has had its own RoundWait to forward it short. The wait
// re-arms for the earliest instant still ahead.
func (n *Node) roundDeadline(sh *shard, fs *flowState, now int64) {
	w := &fs.win
	grace := (gapRounds - 1) * int64(n.cfg.RoundWait) // a hole's write-off lags the deadline above it
	lastDue := w.low                                  // holes in [low, lastDue) are written off
	for seq := w.low; seq != w.high; seq++ {
		if s := fs.at(seq); s.deadline != 0 && s.deadline+grace <= now {
			lastDue = seq
		}
	}
	var next int64
	for seq := w.low; seq != w.high; seq++ {
		s := fs.at(seq)
		at := s.deadline // the round's next instant of interest: its deadline,
		if at == 0 {
			s.forwarded = s.forwarded || int32(lastDue-seq) > 0
			continue
		}
		if at <= now {
			if fwd, _ := fs.needs(seq, s); fwd {
				n.stageRound(sh, fs, seq, s)
			}
			at += grace // then the write-off of any hole below it
		}
		if at > now && (next == 0 || at < next) {
			next = at
		}
	}
	sh.advance(fs)
	switch {
	case w.low == w.high:
		// Idle a whole RoundWait: the ring goes, and the tail with it once
		// no other phase is live; the next slice to hold makes new ones.
		fs.tail.ring = nil
		sh.shedTail(fs)
	case next != 0:
		sh.setDeadline(fs, dlRound, next)
	}
}
