package relay

import (
	"encoding/binary"

	"infoslicing/internal/code"
	"infoslicing/internal/slcrypto"
)

// maxSealedLen bounds a single sealed message on the reassembly stream. It
// doubles as the resync filter's plausibility test: after a skipped round
// the first four bytes of a candidate chunk are AEAD ciphertext — uniform
// random — unless the chunk really starts a message, so a parsed length
// above the bound rejects a mid-message chunk with probability 1−2^-12.
const maxSealedLen = 1 << 20

// rxTail is a destination's receiving phase, in the flow's tail: opener opens
// the messages reassembled on stream under the flow's key. The gap deadline is
// armed while a hole blocks buffered rounds (gapSeq records which hole, so its
// expiry can tell progress from a stall); resync marks that the stream lost
// framing to a skipped round and must re-align on a message boundary. tainted
// marks that the stream's framing derives from a resync guess rather than an
// unbroken chunk sequence; it gates the length sanity check in drainStream and
// clears once a message authenticates.
type rxTail struct {
	stream   []byte
	opener   *slcrypto.Sealer
	gapSeq   uint32
	buffered int32 // decoded chunks parked in the ring behind a missing round
	resync   bool
	tainted  bool
}

// tryDeliver decodes a round and advances the receiver's reassembly
// stream: [4-byte sealed length ‖ sealed bytes ‖ next message ...], each
// chunk independently length-prefixed by the coding layer. The round the
// stream waits on decodes straight onto it; one ahead of a hole, or any
// while the stream resyncs, parks as a chunk in its slot.
func (n *Node) tryDeliver(sh *shard, fs *flowState, seq uint32, s *roundSlot) {
	if len(s.got) < int(fs.route.d) {
		return // cannot span the round yet
	}
	if rx := &sh.tailFor(fs).rx; seq == fs.nextSeq && !rx.resync {
		stream, err := code.DecodeTo(int(fs.route.d), rx.stream, s.got)
		if err != nil {
			return
		}
		rx.stream = stream
		fs.nextSeq++
	} else {
		chunk, err := code.Decode(int(fs.route.d), s.got)
		if err != nil {
			return
		}
		s.chunk = chunk
		rx.buffered++
	}
	s.decoded = true
	if forward, _ := fs.needs(seq, s); !forward {
		s.release() // decoded and nothing to forward: the views are dead weight
	}
	n.spliceChunks(sh, fs)
	n.watchGap(sh, fs, fs.lastActive) // lastActive is this packet's arrival
}

// spliceChunks appends the parked chunks now next in line to the byte
// stream and parses out completed messages. While resyncing after a skip it
// discards chunks until one passes the message-head plausibility test.
func (n *Node) spliceChunks(sh *shard, fs *flowState) {
	rx := &fs.tail.rx
	for w := &fs.win; fs.nextSeq != w.high && fs.at(fs.nextSeq).chunk != nil; {
		s := fs.at(fs.nextSeq)
		c := s.chunk
		s.chunk = nil
		rx.buffered--
		fs.nextSeq++
		if rx.resync {
			if len(c) < 4 {
				continue
			}
			if binary.BigEndian.Uint32(c) > maxSealedLen {
				continue // mid-message ciphertext, not a length prefix
			}
			rx.resync = false
		}
		rx.stream = append(rx.stream, c...)
	}
	n.drainStream(sh, fs, rx)
}

// watchGap arms the gap wait while decoded rounds sit buffered behind a
// missing one, and disarms it once the stream is contiguous. The wait, not
// round arrival, drives the write-off: the hole round may never reach this
// node at all.
func (n *Node) watchGap(sh *shard, fs *flowState, now int64) {
	rx := &fs.tail.rx
	if fs.due[dlGap] != 0 && rx.buffered > 0 && rx.gapSeq == fs.nextSeq {
		return // already watching this hole
	}
	var at int64
	if rx.buffered > 0 {
		rx.gapSeq = fs.nextSeq
		at = now + int64(n.cfg.GapWait)
	}
	sh.setDeadline(fs, dlGap, at)
}

// skipGap writes off the missing rounds the reassembly stream has
// been parked on for a full GapWait. The transport never retransmits, so a
// round still absent after that long lost more than d'−d slices at some
// stage and is gone for good; skipping it trades those messages — already
// lost — for the rest of the flow, which would otherwise head-of-line
// block forever. Any partial message in the stream lost its continuation
// with the hole, so the buffered bytes are dropped and the resync filter
// re-aligns delivery on the next plausible message boundary.
func (n *Node) skipGap(sh *shard, fs *flowState, now int64) {
	if fs.tail.rx.buffered == 0 || fs.nextSeq != fs.tail.rx.gapSeq {
		n.watchGap(sh, fs, now) // progress since arming: watch the new hole, if any
		return
	}
	next := fs.nextSeq
	for next != fs.win.high && fs.at(next).chunk == nil {
		next++
	}
	n.skipStream(sh, fs, next)
	n.spliceChunks(sh, fs)
	n.watchGap(sh, fs, now)
	sh.advance(fs)
}

// skipStream moves the reassembly stream forward to round next,
// writing off the rounds in between and dropping the partial message they
// clipped.
func (n *Node) skipStream(sh *shard, fs *flowState, next uint32) {
	sh.ctr[cRoundsSkipped] += int64(next - fs.nextSeq)
	sh.note(EvGapSkip, fs.flow, uint64(next-fs.nextSeq))
	if rx := &sh.tailFor(fs).rx; len(rx.stream) > 0 || !rx.resync {
		rx.stream = rx.stream[:0]
		rx.resync = true
		rx.tainted = true
		sh.ctr[cStreamResyncs]++
	}
	fs.nextSeq = next
}

func (n *Node) drainStream(sh *shard, fs *flowState, rx *rxTail) {
	for {
		if len(rx.stream) < 4 {
			return
		}
		total := int(binary.BigEndian.Uint32(rx.stream))
		if rx.tainted && total > maxSealedLen {
			// Framing lost (a resync accepted ciphertext that happened to
			// parse as a plausible length). Drop the stream and re-align at
			// the next chunk boundary. An unbroken chunk sequence is never
			// second-guessed: legitimate messages may exceed the cap.
			rx.stream = rx.stream[:0]
			rx.resync = true
			sh.ctr[cStreamResyncs]++
			return
		}
		if len(rx.stream) < 4+total {
			return
		}
		sealed := rx.stream[4 : 4+total]
		if rx.opener == nil {
			rx.opener = slcrypto.NewSealer(fs.route.key)
		}
		plain, err := rx.opener.OpenTo(nil, sealed)
		// Compact in place instead of reallocating per message; the buffer
		// is reused by the next chunks.
		rx.stream = rx.stream[:copy(rx.stream, rx.stream[4+total:])]
		if err != nil {
			sh.ctr[cMessagesCorrupt]++
			continue
		}
		rx.tainted = false // authenticated: framing provably re-aligned
		sh.ctr[cMessagesDelivered]++
		sh.delivered = append(sh.delivered, Message{Flow: fs.flow, Data: plain}) // the driver hands it to Received
	}
}
