package relay

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// A round lost beyond the d'−d budget must not head-of-line block the
// receiver forever: after GapWait the reassembly stream skips the hole and
// later messages keep delivering (the transport never retransmits, so the
// skipped messages are the only casualties).
func TestReceiverGapSkipUnblocksStream(t *testing.T) {
	h := newHarness(t, 1, 2, 3, 211, true)
	defer h.close()
	h.establish(t)

	if err := h.sender.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("before")) {
		t.Fatalf("first message corrupted: %q", got)
	}

	// Black-hole the destination for one round: every slice of the message
	// is dropped in flight, so its round can never decode.
	h.net.Fail(h.graph.Dest)
	if err := h.sender.Send([]byte("swallowed")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the doomed slices drop
	h.net.Revive(h.graph.Dest)

	if err := h.sender.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	// fastCfg RoundWait is 50ms, so GapWait defaults to 100ms; well before
	// the 5s deadline the receiver must write the hole off and deliver.
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("after")) {
		t.Fatalf("post-gap message corrupted: %q", got)
	}
	if st := h.dest.Stats(); st.RoundsSkipped == 0 {
		t.Fatalf("stream advanced without accounting a skip: %+v", st)
	}

	// The flow keeps working normally afterwards.
	if err := h.sender.Send([]byte("steady")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("steady")) {
		t.Fatalf("steady-state message corrupted: %q", got)
	}
}

// The resync filter re-aligns the stream on a message boundary: chunks that
// continue a clipped message parse as implausible length prefixes and are
// discarded; the first plausible head resumes delivery.
func TestResyncFilterRealigns(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	key, err := slcrypto.NewSymmetricKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := key.Seal(rng, []byte("recovered"))
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4, 4+len(sealed))
	head[0] = byte(len(sealed) >> 24)
	head[1] = byte(len(sealed) >> 16)
	head[2] = byte(len(sealed) >> 8)
	head[3] = byte(len(sealed))
	head = append(head, sealed...)

	// Mid-message ciphertext: its first four bytes read as a length far
	// beyond maxSealedLen, so the filter must drop it.
	tail := bytes.Repeat([]byte{0xFF}, 32)

	n := &Node{received: make(chan Message, 4), clk: simnet.Wall}
	sh := &shard{flows: map[wire.FlowID]*flowState{}}
	fs := &flowState{
		flow:    9,
		info:    &wire.PerNodeInfo{Receiver: true, Key: key},
		nextSeq: 5,
		resync:  true,
		win:     roundWindow{slots: make([]roundSlot, 4), low: 5, high: 7, buffered: 2},
	}
	fs.win.at(5).chunk, fs.win.at(6).chunk = tail, head
	sh.flows[9] = fs

	n.spliceChunks(sh, fs)

	select {
	case m := <-n.received:
		if !bytes.Equal(m.Data, []byte("recovered")) {
			t.Fatalf("delivered %q, want %q", m.Data, "recovered")
		}
	default:
		t.Fatal("resync did not re-align on the message head")
	}
	if fs.resync {
		t.Fatal("resync flag still set after a plausible head")
	}
	if fs.nextSeq != 7 {
		t.Fatalf("nextSeq = %d, want 7", fs.nextSeq)
	}
}
