package relay

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// A round lost beyond the d'−d budget must not head-of-line block the
// receiver forever: after the gap wait the reassembly stream skips the hole and
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
	// fastCfg RoundWait is 50ms, so the gap wait is 100ms; well before
	// the 5s deadline the receiver must write the hole off and deliver.
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("after")) {
		t.Fatalf("post-gap message corrupted: %q", got)
	}
	if st := h.dest.Counters(); st.Get("rounds_skipped") == 0 {
		t.Fatalf("stream advanced without accounting a skip: %v", st)
	}

	// The flow keeps working normally afterwards.
	if err := h.sender.Send([]byte("steady")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitMsg(t, 5*time.Second); !bytes.Equal(got, []byte("steady")) {
		t.Fatalf("steady-state message corrupted: %q", got)
	}
	h.checkBooks(t)
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

	n := &Node{}
	sh := &shard{flows: map[wire.FlowID]*flowState{}, ctr: make(metrics.Block, nShardCounters)}
	fs := &flowState{
		flow:    9,
		nextSeq: 5,
		tail:    &flowTail{ring: make([]roundSlot, 4), rx: rxTail{resync: true, buffered: 2}},
		win:     roundWindow{low: 5, high: 7},
	}
	fs.setRoute(&wire.PerNodeInfo{Receiver: true, Key: key})
	fs.at(5).chunk, fs.at(6).chunk = tail, head
	sh.flows[9] = fs

	n.spliceChunks(sh, fs)

	if len(sh.delivered) != 1 {
		t.Fatal("resync did not re-align on the message head")
	}
	if m := sh.delivered[0]; !bytes.Equal(m.Data, []byte("recovered")) {
		t.Fatalf("delivered %q, want %q", m.Data, "recovered")
	}
	if fs.tail.rx.resync {
		t.Fatal("resync flag still set after a plausible head")
	}
	if fs.nextSeq != 7 {
		t.Fatalf("nextSeq = %d, want 7", fs.nextSeq)
	}
}

// What the reassembly stream throws away is named: a message that fails
// authentication (messages_corrupt), one the application is not reading
// (app_dropped), and framing a resync guessed wrong — a length past
// maxSealedLen on a tainted stream (stream_resyncs).
func TestDrainStreamNamesItsDrops(t *testing.T) {
	key := testKey(3)
	sealed, err := key.Seal(rand.New(rand.NewSource(1)), []byte("nobody reads this"))
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{received: make(chan Message)} // no reader
	sh := &shard{ctr: make(metrics.Block, nShardCounters)}
	fs := &flowState{}
	fs.setRoute(&wire.PerNodeInfo{Receiver: true, Key: key})
	rx := &sh.tailFor(fs).rx
	rx.stream = append([]byte{0, 0, 0, 40}, make([]byte, 40)...) // well framed, not sealed by the key
	rx.stream = binary.BigEndian.AppendUint32(rx.stream, uint32(len(sealed)))
	rx.stream = append(rx.stream, sealed...)
	n.drainStream(sh, fs, rx)
	rx.stream, rx.tainted = []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, true
	n.drainStream(sh, fs, rx)
	n.deliver(sh)
	c := sh.ctr.Snapshot(shardVocab)
	if c.Get("messages_corrupt") != 1 || c.Get("messages_delivered") != 1 || c.Get("app_dropped") != 1 || c.Get("stream_resyncs") != 1 {
		t.Fatalf("counters %v, want one corrupt, one delivered and dropped, one resync", c)
	}
}

// receiverFlow is a destination-only flow (d=2, three parents) on a virtual
// clock, fed the frames a sender produces for msgs: each message sealed,
// length-prefixed and cut into chunk-byte rounds — every message starts a
// round — and each round coded into one slice per parent.
type receiverFlow struct {
	clk    *simnet.VirtualClock
	n      *Node
	sh     *shard
	fs     *flowState
	chunk  int
	rng    *rand.Rand
	frames [][3][]byte // frames[seq][parent]
	first  []uint32    // first[i] is message i's first round
}

func newReceiverFlow(tb testing.TB, chunk int, msgs ...[]byte) *receiverFlow {
	tb.Helper()
	clk := simnet.NewVirtualClock()
	n, err := New(1, &wmTransport{clk: clk, sent: map[fwdKey]time.Duration{}}, Config{
		Shards: 1, RoundWait: wmRoundWait, Clock: clk,
		FlowTTL: time.Hour, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	key := testKey(0x71)
	rf := &receiverFlow{clk: clk, n: n, sh: n.shardFor(wmFlow), chunk: chunk, rng: rand.New(rand.NewSource(72))}
	rf.fs = injectFlowAt(n, wmFlow, &wire.PerNodeInfo{Receiver: true, Key: key, DataMap: parentsOnly(wmParents...)}, clk.Now())
	rf.seal(tb, key, msgs...)
	return rf
}

// seal appends the rounds of msgs, sealed under key, after the last round.
func (rf *receiverFlow) seal(tb testing.TB, key slcrypto.SymmetricKey, msgs ...[]byte) {
	tb.Helper()
	enc, err := code.NewEncoder(wmD, len(wmParents), rf.rng)
	if err != nil {
		tb.Fatal(err)
	}
	sealer := slcrypto.NewSealer(key)
	for _, m := range msgs {
		framed := binary.BigEndian.AppendUint32(nil, uint32(slcrypto.SealedLen(len(m))))
		if framed, err = sealer.SealTo(framed, rf.rng, m); err != nil {
			tb.Fatal(err)
		}
		rf.first = append(rf.first, uint32(len(rf.frames)))
		for off := 0; off < len(framed); off += rf.chunk {
			slices, err := enc.Encode(framed[off:min(off+rf.chunk, len(framed))])
			if err != nil {
				tb.Fatal(err)
			}
			seq := uint32(len(rf.frames))
			var f [3][]byte
			for p := range f {
				f[p] = dataFrame(wmFlow, seq, wmD, slices[p])
			}
			rf.frames = append(rf.frames, f)
		}
	}
}

// arrive hands the node parent p's slice of round seq.
func (rf *receiverFlow) arrive(seq uint32, p int) {
	rf.n.process(rf.sh, wmParents[p], rf.frames[seq][p])
}

// delivered drains what the node has handed to Received() so far.
func (rf *receiverFlow) delivered() (out [][]byte) {
	for {
		select {
		case m := <-rf.n.received:
			out = append(out, m.Data)
		default:
			return out
		}
	}
}

// A receiver must deliver the same messages however its rounds arrive: in
// order (each decoded straight onto the stream), reordered (rounds ahead of
// a hole park as chunks), with duplicate slices and replayed rounds, and
// across lost rounds — one mid-message, one a message's head — which the gap wait
// writes off, losing exactly the messages they cut, while the resync filter
// drops the orphaned continuation rounds.
func TestReceiverDeliversRoundSequences(t *testing.T) {
	sizes := []int{1, 30, 100, 200, 333, 57, 0, 150, 90, 64, 400, 12}
	msgs := make([][]byte, len(sizes))
	rng := rand.New(rand.NewSource(73))
	for i, n := range sizes {
		msgs[i] = make([]byte, n)
		rng.Read(msgs[i])
	}
	type arrival struct {
		seq uint32
		p   int
	}
	inOrder := func(rounds int) (a []arrival) {
		for seq := 0; seq < rounds; seq++ {
			for p := range wmParents {
				a = append(a, arrival{uint32(seq), p})
			}
		}
		return a
	}
	for _, tc := range []struct {
		name    string
		script  func(rf *receiverFlow) []arrival
		lost    []int // messages the script loses a round of
		resyncs int64
		// late, if set, names the first round held back until the hole
		// below it has been written off.
		late func(rf *receiverFlow) uint32
	}{
		{"in order", func(rf *receiverFlow) []arrival { return inOrder(len(rf.frames)) }, nil, 0, nil},
		{"reordered", func(rf *receiverFlow) []arrival {
			a := inOrder(len(rf.frames))
			r := rand.New(rand.NewSource(74))
			for i := 0; i < len(a); i += 10 { // shuffle within a few rounds
				blk := a[i:min(i+10, len(a))]
				r.Shuffle(len(blk), func(x, y int) { blk[x], blk[y] = blk[y], blk[x] })
			}
			return a
		}, nil, 0, nil},
		{"duplicated", func(rf *receiverFlow) []arrival {
			var a []arrival
			for _, x := range inOrder(len(rf.frames)) {
				a = append(a, x, x)
				if x.p == 2 && x.seq > 2 {
					a = append(a, arrival{x.seq - 2, 0}) // a finished round replayed
				}
			}
			return a
		}, nil, 0, nil},
		{"gap skipped", func(rf *receiverFlow) []arrival {
			var a []arrival
			for _, x := range inOrder(len(rf.frames)) {
				switch {
				case x.seq == rf.first[4]+1: // message 4 loses a middle round
				case x.seq == rf.first[7] && x.p > 0: // message 7 loses its head
				default:
					a = append(a, x)
				}
			}
			return a
		}, []int{4, 7}, 2, nil},
		// The rest of a clipped message arrives after its hole was written
		// off, in order, while the stream still looks for a message head.
		{"gap skipped, tail late", func(rf *receiverFlow) []arrival {
			var a []arrival
			for _, x := range inOrder(len(rf.frames)) {
				if x.seq != rf.first[4]+1 {
					a = append(a, x)
				}
			}
			return a
		}, []int{4}, 1, func(rf *receiverFlow) uint32 { return rf.first[4] + 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rf := newReceiverFlow(t, 64, msgs...)
			if rf.first[4]+1 >= rf.first[5] {
				t.Fatal("message 4 must span at least two rounds")
			}
			late := uint32(len(rf.frames))
			if tc.late != nil {
				late = tc.late(rf)
			}
			var held []arrival
			for _, x := range tc.script(rf) {
				if x.seq >= late {
					held = append(held, x)
					continue
				}
				rf.arrive(x.seq, x.p)
			}
			for range 4 {
				rf.clk.RunFor(gapRounds * wmRoundWait) // the gap wait
			}
			for _, x := range held {
				rf.arrive(x.seq, x.p)
			}
			var want [][]byte
			for i, m := range msgs {
				if !slices.Contains(tc.lost, i) {
					want = append(want, m)
				}
			}
			got := rf.delivered()
			if len(got) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("message %d: delivered %x, want %x", i, got[i], want[i])
				}
			}
			if st := rf.n.Counters(); (st.Get("rounds_skipped") > 0) != (tc.lost != nil) || st.Get("stream_resyncs") != tc.resyncs {
				t.Fatalf("rounds_skipped = %d with lost messages %v; stream_resyncs = %d, want %d",
					st.Get("rounds_skipped"), tc.lost, st.Get("stream_resyncs"), tc.resyncs)
			}
			checkBooks(t, rf.n)
		})
	}
}

// Once a flow's stream has held one message, every in-order round of the
// next message of that size decodes onto it without allocating; only
// opening the message, into the buffer Received() hands out, allocates.
func TestInOrderRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const runs = 32
	msg := make([]byte, 64*(runs+4))
	rand.New(rand.NewSource(75)).Read(msg)
	rf := newReceiverFlow(t, 64, msg, msg)
	for seq := uint32(0); seq < rf.first[1]; seq++ {
		rf.arrive(seq, 0)
		rf.arrive(seq, 1)
	}
	if got := rf.delivered(); len(got) != 1 || !bytes.Equal(got[0], msg) {
		t.Fatalf("warm-up message not delivered (%d messages)", len(got))
	}
	seq := rf.first[1]
	var allocs float64
	rf.sh.do(func() {
		allocs = testing.AllocsPerRun(runs, func() {
			rf.n.processHere(rf.sh, wmParents[0], rf.frames[seq][0])
			rf.n.processHere(rf.sh, wmParents[1], rf.frames[seq][1])
			seq++
		})
	})
	if allocs != 0 {
		t.Fatalf("an in-order round allocated %v times", allocs)
	}
	for ; seq < uint32(len(rf.frames)); seq++ {
		rf.arrive(seq, 0)
		rf.arrive(seq, 1)
	}
	if got := rf.delivered(); len(got) != 1 || !bytes.Equal(got[0], msg) {
		t.Fatalf("measured message not delivered (%d messages)", len(got))
	}
}

// A destination at rest sheds its receiving phase: a RoundWait after a
// message it holds no round ring and no receiver tail, and the next message
// still arrives intact. One parked on a hole keeps its tail until the gap wait
// writes the hole off and a later message re-aligns the stream; a splice
// re-keys what the held tail and the next fresh one open; and nothing
// opened is left unaccounted for.
func TestDestinationShedsTailAtRest(t *testing.T) {
	msgs := make([][]byte, 6)
	rng := rand.New(rand.NewSource(76))
	for i := range msgs {
		msgs[i] = make([]byte, 150) // three rounds of 64 bytes each
		rng.Read(msgs[i])
	}
	rf := newReceiverFlow(t, 64, msgs[:4]...)
	newKey := testKey(0x72)
	rf.seal(t, newKey, msgs[4:]...)
	rounds := func(from, to uint32) {
		for seq := from; seq < to; seq++ {
			rf.arrive(seq, 0)
			rf.arrive(seq, 1)
		}
	}
	expect := func(step string, want ...[]byte) {
		t.Helper()
		got := rf.delivered()
		if len(got) != len(want) {
			t.Fatalf("%s: delivered %d messages, want %d", step, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: message %d corrupted", step, i)
			}
		}
	}
	holds := func(step string, ring, tail bool) {
		t.Helper()
		var hasRing, hasTail bool
		rf.sh.do(func() { hasTail = rf.fs.tail != nil; hasRing = hasTail && rf.fs.tail.ring != nil })
		if hasRing != ring || hasTail != tail {
			t.Fatalf("%s: ring %v and tail %v, want %v and %v", step, hasRing, hasTail, ring, tail)
		}
	}

	rounds(rf.first[0], rf.first[1])
	expect("message 1", msgs[0])
	holds("message 1 decoded", true, true)
	rf.clk.RunFor(wmRoundWait)
	holds("a RoundWait after message 1", false, false)
	rounds(rf.first[1], rf.first[2])
	expect("message 2", msgs[1])
	rf.clk.RunFor(wmRoundWait)
	holds("a RoundWait after message 2", false, false)

	// Message 3 loses its first round: the two behind it decode and park.
	rounds(rf.first[2]+1, rf.first[3])
	rf.clk.RunFor(wmRoundWait)
	holds("parked on the hole", true, true)
	rf.clk.RunFor(wmRoundWait) // the gap wait since the rounds parked
	expect("hole written off")
	if got := rf.n.Counters().Get("rounds_skipped"); got != 1 {
		t.Fatalf("rounds_skipped = %d, want the hole", got)
	}
	// Nothing is in flight, but the stream still looks for a message head:
	// a round deadline gives the ring back and keeps the tail.
	rf.sh.do(func() { rf.n.roundDeadline(rf.sh, rf.fs, rf.n.stamp(rf.clk.Now())) })
	holds("resyncing", false, true)
	rounds(rf.first[3], rf.first[4])
	expect("message 4 re-aligns", msgs[3])

	// The source re-keys the flow while the tail still holds an opener.
	var opener bool
	rf.sh.do(func() { opener = rf.fs.tail.rx.opener != nil })
	if !opener {
		t.Fatal("no opener held across the splice")
	}
	patch := &wire.PerNodeInfo{Receiver: true, Key: newKey, DataMap: parentsOnly(wmParents...)}
	sealed, err := testKey(0x71).Seal(rng, spliceBody(1, patch))
	if err != nil {
		t.Fatal(err)
	}
	rf.n.process(rf.sh, wmParents[0], wire.AppendSplice(nil, wmFlow, sealed))
	rounds(rf.first[4], rf.first[5])
	expect("message 5 under the new key", msgs[4])
	rf.clk.RunFor(wmRoundWait)
	holds("a RoundWait after message 5", false, false)
	rounds(rf.first[5], uint32(len(rf.frames)))
	expect("message 6 under the new key", msgs[5])
	rf.clk.RunFor(wmRoundWait)
	holds("at rest", false, false)
	checkBooks(t, rf.n)
}
