package relay

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/metrics"
	"infoslicing/internal/wire"
)

// Regression tests for burst-mode shard processing: draining the queue in
// bursts must not change any observable behavior — forwarding stays
// exactly-once, drop accounting stays exact, shutdown still returns every
// queued clock hold, and outcomes are independent of the burst size.

func dataFrame(flow wire.FlowID, seq uint32, d int, sl code.Slice) []byte {
	slotLen := len(sl.Coeff) + len(sl.Payload) + 4
	buf := wire.AppendPacketHeader(nil, wire.MsgData, flow, seq, uint8(d), uint16(slotLen), 1)
	return wire.AppendSlot(buf, sl)
}

// TestBurstExactlyOnceForwarding processes one burst containing a duplicate
// slice (same parent, same round) and a garbage datagram alongside the two
// legitimate slices: the round must forward exactly once per data-map entry,
// the duplicate must still be counted inbound, and the garbage must vanish
// without disturbing the rest of the burst.
func TestBurstExactlyOnceForwarding(t *testing.T) {
	const (
		flow   = wire.FlowID(0xb0057)
		p1, p2 = wire.NodeID(11), wire.NodeID(12)
		chld   = wire.NodeID(21)
	)
	s, n := virtualNode(t, 1, Config{})
	for _, id := range []wire.NodeID{p1, p2, chld} {
		if err := s.Net.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	injectFlowAt(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{chld},
		ChildFlows: []wire.FlowID{0xc0},
		Key:        testKey(0x31),
		DataMap: []wire.DataForward{
			{Parent: p1, Child: 0}, {Parent: p2, Child: 0},
		},
	}, s.Clk.Now())

	rng := rand.New(rand.NewSource(9))
	enc, err := code.NewEncoder(2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 600)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}

	sh := n.shards[0]
	released := 0
	rel := func() { released++ }
	burst := []inPkt{
		{from: p1, data: dataFrame(flow, 0, 2, slices[0]), release: rel},
		{from: 99, data: []byte{0xff}, release: rel},                     // garbage: parse fails
		{from: p1, data: dataFrame(flow, 0, 2, slices[0]), release: rel}, // duplicate
		{from: p2, data: dataFrame(flow, 0, 2, slices[1]), release: rel},
	}
	sh.do(func() {
		n.step(sh, n.stamp(s.Clk.Now()), burst)
		n.flush(sh)
	})
	for i := range burst {
		burst[i].release()
	}

	st := n.Counters()
	if st.Get("data_in") != 3 || st.Get("duplicate_slices") != 1 {
		t.Fatalf("counters %v, want 3 data packets in, one a duplicate", st)
	}
	if st.Get("packets_out") != 2 {
		t.Fatalf("packets_out = %d, want 2 (one per data-map entry, exactly once)", st.Get("packets_out"))
	}
	checkBooks(t, n)
	if released != 4 {
		t.Fatalf("released %d holds, want 4", released)
	}
}

// TestBurstQueueDropAccounting overfills a shard queue: every packet beyond
// the queue depth must be counted in queue_drops and have its clock hold
// released immediately, and nothing may be double-counted when the excess
// arrives while a burst is outstanding (the queue is never drained here, as
// if the worker were mid-burst the whole time).
func TestBurstQueueDropAccounting(t *testing.T) {
	sh := &shard{in: make(chan inPkt, 4)}
	n := &Node{ctr: metrics.NewShardedCounter(2, nodeVocab)}
	released := 0
	for i := 0; i < 10; i++ {
		n.enqueue(sh, 7, []byte{byte(i)}, func() { released++ })
	}
	if got := n.ctr.Snapshot().Get("queue_drops"); got != 6 {
		t.Fatalf("queue_drops = %d, want 6", got)
	}
	if released != 6 {
		t.Fatalf("released %d holds at enqueue, want 6 (dropped packets only)", released)
	}
	if len(sh.in) != 4 {
		t.Fatalf("queue holds %d packets, want 4", len(sh.in))
	}
}

// TestBurstShutdownReleasesHolds closes the node while its worker is held up
// in a mailbox call with a backlog queued behind it: every clock hold — from
// a burst the worker still picks up and from the untouched backlog — must
// come back, or a virtual-time run would hang forever; and none of the
// packets may be processed after the done-check.
func TestBurstShutdownReleasesHolds(t *testing.T) {
	const flow = wire.FlowID(0xdead)
	s, n := virtualNode(t, 1, Config{})
	sh := n.shards[0]

	rng := rand.New(rand.NewSource(5))
	enc, err := code.NewEncoder(2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 200)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}

	// Stall the worker while a backlog of more than one burst queues up, and
	// let it go only once Close has signalled shutdown, so no packet can slip
	// through.
	closed := make(chan struct{})
	sh.do(func() {
		for i := 0; i < maxBurst+12; i++ {
			n.enqueue(sh, wire.NodeID(11), dataFrame(flow, uint32(i), 2, slices[0]), s.Clk.Hold())
		}
		go func() {
			n.Close()
			close(closed)
		}()
		<-n.done
	})
	<-closed

	// Every hold must be back: a virtual clock step blocks until the
	// universe quiesces, so a leaked hold turns into a hang.
	quiesced := make(chan struct{})
	go func() {
		s.Clk.RunFor(0)
		close(quiesced)
	}()
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("virtual clock never quiesced: shutdown leaked queued clock holds")
	}
	if got := n.Counters().Get("data_in"); got != 0 {
		t.Fatalf("%d packets processed after close", got)
	}
	if got := n.FlowTableSize(); got != 0 {
		t.Fatalf("shutdown burst resurrected %d flow(s)", got)
	}
}

// TestBurstSizeInvariance feeds one 40-round arrival schedule straight to a
// shard's step in bursts of 1, 4 and 64 (and 4 twice), ticking every
// millisecond: burst draining amortizes overhead but must never change what is
// processed, forwarded, or regenerated — the counters and every frame sent,
// byte for byte, are the same.
func TestBurstSizeInvariance(t *testing.T) {
	const (
		flow       = wire.FlowID(0xabc)
		p1, p2, p3 = wire.NodeID(11), wire.NodeID(12), wire.NodeID(13)
		chld       = wire.NodeID(21)
	)
	// d=2 split carried by three parents: losing one still leaves a
	// decodable pair, so the lost redundancy is regenerated (§4.4.1). Four
	// rounds arrive per millisecond, and every fifth loses p3's slice.
	rng := rand.New(rand.NewSource(17))
	enc, err := code.NewEncoder(2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 600)
	arrivals := make([][]inPkt, 10) // by millisecond
	for i := 0; i < 40; i++ {
		rng.Read(chunk)
		sl, err := enc.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		at := &arrivals[i/4]
		for p, from := range []wire.NodeID{p1, p2, p3} {
			if from != p3 || i%5 != 4 {
				*at = append(*at, inPkt{from: from, data: dataFrame(flow, uint32(i), 2, sl[p])})
			}
		}
	}
	run := func(burst int) (metrics.Snapshot, [][]byte) {
		r := newSeamRig(t, 1, Config{RoundWait: 5 * time.Millisecond})
		injectFlowAt(r.n, flow, &wire.PerNodeInfo{
			Children:   []wire.NodeID{chld},
			ChildFlows: []wire.FlowID{0xc1},
			Key:        testKey(0x42),
			Recode:     true,
			DataMap: []wire.DataForward{
				{Parent: p1, Child: 0}, {Parent: p2, Child: 0}, {Parent: p3, Child: 0},
			},
		}, r.n.epoch)
		var sent [][]byte
		for ms := 0; ms <= 200; ms++ {
			now := time.Duration(ms) * time.Millisecond
			if ms < len(arrivals) {
				for pkts := arrivals[ms]; len(pkts) > 0; pkts = pkts[min(burst, len(pkts)):] {
					r.step(now, pkts[:min(burst, len(pkts))]...)
					sent = append(sent, r.frames[chld]...)
				}
			}
			r.tick(now)
			sent = append(sent, r.frames[chld]...)
		}
		st := r.n.Counters()
		r.n.Close()
		checkBooks(t, r.n)
		return st, sent
	}

	base, baseSent := run(4)
	if base.Get("data_in") != 112 || base.Get("packets_out") == 0 {
		t.Fatalf("scenario processed nothing: %v", base)
	}
	if base.Get("regenerated") == 0 {
		t.Fatalf("scenario never regenerated despite lost slices: %v", base)
	}
	if again, sent := run(4); !slices.Equal(again.Values, base.Values) || !slices.EqualFunc(sent, baseSent, bytes.Equal) {
		t.Fatalf("same seed, same burst, different outcomes:\n%v\n%v", again, base)
	}
	for _, b := range []int{1, 64} {
		if got, sent := run(b); !slices.Equal(got.Values, base.Values) || !slices.EqualFunc(sent, baseSent, bytes.Equal) {
			t.Fatalf("burst=%d changed outcomes:\nburst=4: %v\nburst=%d: %v", b, base, b, got)
		}
	}
}
