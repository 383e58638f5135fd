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

// rxTail is a destination's receiving phase, from its first decodable round
// until it rests (shedRx): opener opens the messages reassembled on stream
// under the flow's key. The gap deadline is armed while a hole blocks
// buffered rounds (gapSeq records which hole, so its expiry can tell progress
// from a stall); resync marks that the stream lost framing to a skipped round
// and must re-align on a message boundary. tainted marks that the stream's
// framing derives from a resync guess rather than an unbroken chunk sequence;
// it gates the length sanity check in drainStream and clears once a message
// authenticates.
type rxTail struct {
	stream  []byte
	opener  *slcrypto.Sealer
	gapSeq  uint32
	resync  bool
	tainted bool
}

// rxFor returns the flow's receiver tail, taking the shard's spare if it has none.
func (sh *shard) rxFor(fs *flowState) *rxTail {
	if fs.rx == nil {
		if fs.rx, sh.spareRx = sh.spareRx, nil; fs.rx == nil {
			fs.rx = new(rxTail)
		}
	}
	return fs.rx
}

// shedRx drops the tail of a flow at rest — stream empty and aligned (not
// tainted: a resyncing stream is), no gap wait armed — and gives its stream
// buffer to the shard's spare.
func (sh *shard) shedRx(fs *flowState) {
	rx := fs.rx
	if rx == nil || len(rx.stream) > 0 || rx.tainted || fs.due[dlGap] != 0 {
		return
	}
	fs.rx = nil
	if sh.spareRx == nil {
		*rx = rxTail{stream: rx.stream}
		sh.spareRx = rx
	}
}

// tryDeliver decodes a round and advances the receiver's reassembly
// stream: [4-byte sealed length ‖ sealed bytes ‖ next message ...], each
// chunk independently length-prefixed by the coding layer. The round the
// stream waits on decodes straight onto it; one ahead of a hole, or any
// while the stream resyncs, parks as a chunk in its slot.
func (n *Node) tryDeliver(sh *shard, fs *flowState, seq uint32, s *roundSlot) {
	if len(s.got) < fs.d {
		return // cannot span the round yet
	}
	if rx := sh.rxFor(fs); seq == fs.nextSeq && !rx.resync {
		stream, err := code.DecodeTo(fs.d, rx.stream, s.got)
		if err != nil {
			return
		}
		rx.stream = stream
		fs.nextSeq++
	} else {
		chunk, err := code.Decode(fs.d, s.got)
		if err != nil {
			return
		}
		s.chunk = chunk
		fs.win.buffered++
	}
	s.decoded = true
	if forward, _ := fs.needs(seq, s); !forward {
		s.release() // decoded and nothing to forward: the views are dead weight
	}
	n.spliceChunks(sh, fs)
	n.watchGap(sh, fs)
}

// spliceChunks appends the parked chunks now next in line to the byte
// stream and parses out completed messages. While resyncing after a skip it
// discards chunks until one passes the message-head plausibility test.
func (n *Node) spliceChunks(sh *shard, fs *flowState) {
	rx := fs.rx
	for w := &fs.win; fs.nextSeq != w.high && w.at(fs.nextSeq).chunk != nil; {
		s := w.at(fs.nextSeq)
		c := s.chunk
		s.chunk = nil
		w.buffered--
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
func (n *Node) watchGap(sh *shard, fs *flowState) {
	if fs.due[dlGap] != 0 && fs.win.buffered > 0 && fs.rx.gapSeq == fs.nextSeq {
		return // already watching this hole
	}
	var at int64
	if fs.win.buffered > 0 { // buffered chunks were decoded: the flow has its tail
		fs.rx.gapSeq = fs.nextSeq
		at = n.stamp(n.clk.Now().Add(n.cfg.GapWait))
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
func (n *Node) skipGap(sh *shard, fs *flowState) {
	if fs.win.buffered == 0 || fs.nextSeq != fs.rx.gapSeq {
		n.watchGap(sh, fs) // progress since arming: watch the new hole, if any
		return
	}
	next := fs.nextSeq
	for next != fs.win.high && fs.win.at(next).chunk == nil {
		next++
	}
	n.skipStream(sh, fs, next)
	n.spliceChunks(sh, fs)
	n.watchGap(sh, fs)
	fs.advance(sh.ctr)
}

// skipStream moves the reassembly stream forward to round next,
// writing off the rounds in between and dropping the partial message they
// clipped.
func (n *Node) skipStream(sh *shard, fs *flowState, next uint32) {
	sh.ctr[cRoundsSkipped] += int64(next - fs.nextSeq)
	if rx := sh.rxFor(fs); len(rx.stream) > 0 || !rx.resync {
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
			rx.opener = slcrypto.NewSealer(fs.info.Key)
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
		select {
		case n.received <- Message{Flow: fs.flow, Data: plain}:
		default:
			sh.ctr[cAppDropped]++
		}
	}
}
