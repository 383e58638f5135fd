package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"testing"

	"infoslicing/internal/wire"
)

// The two network-facing frame splitters — the stream reader and the
// datagram unpacker — against one plain reference: whatever bytes a peer
// sends, in whatever chunking, neither may panic, and what they deliver
// must be exactly the frames the reference finds, each in memory nothing
// else will touch.

const fuzzMaxFrame = 128 << 10 // above the reader's 64 KiB slab, far below any hostile length

type refFrame struct {
	from    wire.NodeID
	payload []byte
}

// refSplit is the reference splitter, in uint64 arithmetic: whole frames
// from the front of b, stopping at the first header that claims more than
// maxFrame (bad) or more than b still holds.
func refSplit(b []byte, maxFrame int) (frames []refFrame, bad bool) {
	for len(b) >= HeaderLen {
		size := uint64(binary.BigEndian.Uint32(b))
		if size > uint64(maxFrame) {
			return frames, true
		}
		if uint64(HeaderLen)+size > uint64(len(b)) {
			break
		}
		end := HeaderLen + int(size)
		frames = append(frames, refFrame{
			from:    wire.NodeID(binary.BigEndian.Uint32(b[4:])),
			payload: append([]byte(nil), b[HeaderLen:end]...),
		})
		b = b[end:]
	}
	return frames, false
}

// checkDelivered compares what a splitter handed out with the reference,
// after the splitter is done: a view that a later read or copy overwrote,
// or one an appending handler could grow into its neighbour, fails here.
func checkDelivered(t *testing.T, got, want []refFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d frames, reference finds %d", len(got), len(want))
	}
	for i := range got {
		if cap(got[i].payload) != len(got[i].payload) {
			t.Fatalf("frame %d: view has cap %d > len %d (an append would write into the next frame)",
				i, cap(got[i].payload), len(got[i].payload))
		}
	}
	for i := range got {
		if got[i].from != want[i].from || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("frame %d = {from %d, %d bytes}, want {from %d, %d bytes}",
				i, got[i].from, len(got[i].payload), want[i].from, len(want[i].payload))
		}
	}
}

func frame(from wire.NodeID, payload []byte) []byte {
	b := make([]byte, HeaderLen, HeaderLen+len(payload))
	putHeader(b, from, len(payload))
	return append(b, payload...)
}

// hostileHeader claims a payload of n bytes it does not carry.
func hostileHeader(n uint32) []byte {
	b := make([]byte, HeaderLen, HeaderLen+8)
	binary.BigEndian.PutUint32(b, n)
	binary.BigEndian.PutUint32(b[4:], 1)
	return append(b, "trailing"...)
}

func FuzzStreamSplitter(f *testing.F) {
	// Hostile lengths, truncated headers and zero-length frames are seeded
	// from testdata/fuzz; a frame larger than the reader's slab is not
	// something to keep in a text file.
	f.Add(append(frame(7, []byte("alpha")), frame(8, nil)...), []byte{3, 1, 200})
	f.Add(frame(9, bytes.Repeat([]byte{0xAB}, 70<<10)), []byte{255, 17})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var got []refFrame
		a := NewAcceptor(nil, fuzzMaxFrame, func(from wire.NodeID, payload []byte) bool {
			got = append(got, refFrame{from, payload})
			return true
		}, NewCounters())
		client, server := net.Pipe()
		go func() {
			// Write the stream in the chunk sizes cuts dictates (cycled; a
			// zero byte is a 256-byte chunk), so frame and read boundaries
			// fall everywhere. Chunks scale up with the stream so one input
			// costs at most a few hundred pipe hand-offs.
			defer client.Close()
			scale := len(stream)/(64<<10) + 1
			for i, rest := 0, stream; len(rest) > 0; i++ {
				n := 256
				if len(cuts) > 0 && cuts[i%len(cuts)] != 0 {
					n = int(cuts[i%len(cuts)])
				}
				n *= scale
				if n > len(rest) {
					n = len(rest)
				}
				if _, err := client.Write(rest[:n]); err != nil {
					return // the reader hung up on a bad header
				}
				rest = rest[n:]
			}
		}()
		a.readLoop(server)
		server.Close()
		want, _ := refSplit(stream, fuzzMaxFrame)
		checkDelivered(t, got, want)
	})
}

// datagramOf builds a data datagram that requests an ack, as a sender's
// RTT probe does.
func datagramOf(seq uint32, body []byte) []byte {
	b := append([]byte(nil), dgMagic[:]...)
	b = append(b, dgKindData|dgAckReq, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[5:], seq)
	return append(b, body...)
}

// deliverDatagram runs one datagram through a fresh acceptor's unpacker.
func deliverDatagram(dg []byte) (got []refFrame) {
	a := NewUDPAcceptor(nil, fuzzMaxFrame, UDPConfig{}, func(from wire.NodeID, payload []byte) bool {
		got = append(got, refFrame{from, payload})
		return true
	}, NewCounters())
	srcs := make(map[netip.AddrPort]*rxSource)
	var seen []netip.AddrPort
	var slab []byte
	a.handleDatagram(dg, netip.MustParseAddrPort("127.0.0.1:9"), srcs, &seen, &slab)
	return got
}

func FuzzDatagram(f *testing.F) {
	f.Add(datagramOf(1, append(frame(7, []byte("alpha")), frame(8, nil)...)))
	f.Add([]byte("not-a-datagram-at-all!"))
	f.Fuzz(func(t *testing.T, dg []byte) {
		var want []refFrame
		if len(dg) >= dgHdrLen && [4]byte(dg[:4]) == dgMagic && dg[4]&^dgAckReq == dgKindData {
			want, _ = refSplit(dg[dgHdrLen:], fuzzMaxFrame)
		}
		staging := append([]byte(nil), dg...)
		got := deliverDatagram(staging)
		// The staging buffer is reused by the next recvmmsg: delivered
		// views must not live in it.
		for i := range staging {
			staging[i] ^= 0xFF
		}
		checkDelivered(t, got, want)
	})
}

// The regression the shared header parser fixes: on a 32-bit platform a
// claimed length ≥ 2^31 converted to int before the bound went negative,
// passed both checks and panicked the slice expression — one 21-byte
// datagram killed the daemon. (Fails before the fix under GOARCH=386; CI
// runs this package there.) The frames in front of the hostile header are
// still delivered, the rest of the datagram is dropped.
func TestDatagramHostileLengthDropsTail(t *testing.T) {
	for _, claim := range []uint32{0xFFFFFFF0, 1 << 31, 0x7FFFFFFF, fuzzMaxFrame + 1} {
		body := append(frame(7, []byte("kept")), hostileHeader(claim)...)
		got := deliverDatagram(datagramOf(1, body))
		if len(got) != 1 || string(got[0].payload) != "kept" {
			t.Fatalf("claim %#x: delivered %d frames, want only the one before the hostile header", claim, len(got))
		}
	}
}

// FuzzUDPAck drives one sender's congestion state with a script of sends
// (as many as the window lets out, as the writer does), acks — raw bytes
// through the ack parser, or lies built around the live seq space — RTOs
// and redials. Whatever a receiver claims, nothing panics, the flight
// nextSeq − ackSeq never goes negative, the window stays within
// [1, MaxWindow], and an ack claiming datagrams never sent is refused and
// counted under acks_future. The committed corpus (testdata/fuzz) holds the
// liars by name: an ack of the future, counts that run ahead of the seqs,
// stale and wrapped seqs, late acks after an RTO or a redial.
func FuzzUDPAck(f *testing.F) {
	ackOf := func(seq uint32, count uint64) []byte {
		b := append([]byte(nil), dgMagic[:]...)
		b = append(b, dgKindAck)
		b = binary.BigEndian.AppendUint32(b, seq)
		return binary.BigEndian.AppendUint64(b, count)
	}
	const maxWindow = 64
	f.Fuzz(func(t *testing.T, script []byte) {
		ucfg := UDPConfig{MaxWindow: maxWindow}
		ucfg.fillDefaults()
		p := &UDPPeer{
			outbox:    outbox{ctr: NewCounters()},
			ucfg:      ucfg,
			est:       newRTTEstimator(0),
			win:       newCubicWindow(8, maxWindow),
			ackSignal: make(chan struct{}, 1),
		}
		dgs := make([][]byte, 32)
		for i := range dgs {
			dgs[i] = make([]byte, dgHdrLen)
		}
		var futures int64
		for step := 0; len(script) > 0; step++ {
			op := script[0]
			script = script[1:]
			future := int64(0)
			switch op % 4 {
			case 0: // the writer sends what the window lets out
				if n := min(1+int(op>>2)%len(dgs), p.windowRoom()); n > 0 {
					p.stampSeqs(dgs[:n])
				}
			case 1: // raw bytes off the socket
				n := min(udpAckLen, len(script))
				if seq, count, ok := parseAck(script[:n]); ok {
					if int32(seq-p.nextSeq) > 0 {
						future = 1
					}
					p.handleAck(seq, count)
				}
				script = script[n:]
			case 2: // an ack around the live seq space
				if len(script) < 2 {
					script = nil
					continue
				}
				dseq, dcount := int8(script[0]), int8(script[1])
				script = script[2:]
				seq, count, ok := parseAck(ackOf(p.nextSeq+uint32(int32(dseq)), p.ackCount+uint64(int64(dcount))))
				if !ok {
					t.Fatal("parseAck refused a well-formed ack")
				}
				if dseq > 0 {
					future = 1
				}
				p.handleAck(seq, count)
			case 3:
				if op&4 != 0 {
					p.onRTO()
				} else {
					p.resetAckState()
				}
			}
			futures += future
			if flight := int32(p.nextSeq - p.ackSeq); flight < 0 {
				t.Fatalf("step %d: flight %d (nextSeq %d, ackSeq %d)", step, flight, p.nextSeq, p.ackSeq)
			}
			if w := p.win.Window(); w < 1 || w > maxWindow {
				t.Fatalf("step %d: window %d outside [1, %d]", step, w, maxWindow)
			}
		}
		if got := p.counters().Get("acks_future"); got != futures {
			t.Fatalf("acks_future = %d, want %d", got, futures)
		}
	})
}
