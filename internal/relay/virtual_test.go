package relay

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// Timer edge cases only a virtual clock can pin: under the wall clock these
// races land on one side or the other depending on scheduler luck; under
// simnet they land on one deterministic, documented side — network
// deliveries stamped at instant T fire before timers stamped at T.

// virtualNode builds a relay on a fresh virtual universe with zero-delay
// links, so a packet sent at T is processed at T.
func virtualNode(t *testing.T, id wire.NodeID, cfg Config) (*simnet.Script, *Node) {
	t.Helper()
	simnet.ReportSeed(t)
	s := simnet.NewScript(1, simnet.LinkProfile{})
	cfg.Clock = s.Clk
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(int64(id)))
	}
	n, err := New(id, s.Net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return s, n
}

// A node off the wall clock runs one shard whatever Config.Shards asks for:
// concurrent shard workers would race SimNet's per-sender sequence. A
// wall-clock node keeps the shards it asked for.
func TestVirtualClockRunsOneShard(t *testing.T) {
	_, v := virtualNode(t, 1, Config{Shards: 4})
	if got := len(v.shards); got != 1 {
		t.Fatalf("virtual-clock node runs %d shards, want 1", got)
	}
	w, err := New(2, &countingTransport{}, Config{Shards: 4, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := len(w.shards); got != 4 {
		t.Fatalf("wall-clock node runs %d shards, want 4", got)
	}
}

// TestLivenessBoundaryHeartbeat: a heartbeat arriving at exactly the virtual
// instant the liveness sweep runs — silence == livenessBeats heartbeats on the nose —
// deterministically wins the race (deliveries order before timers), so the
// parent is not reported; losing that same heartbeat gets the parent
// reported at that very sweep.
func TestLivenessBoundaryHeartbeat(t *testing.T) {
	const (
		flow = wire.FlowID(0xf00d)
		par  = wire.NodeID(101)
		chld = wire.NodeID(201)
	)
	run := func(sendBoundaryHeartbeat bool) int64 {
		s, n := virtualNode(t, 1, Config{Heartbeat: 10 * time.Millisecond})
		if err := s.Net.Attach(par, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
		if err := s.Net.Attach(chld, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
		injectFlowAt(n, flow, &wire.PerNodeInfo{
			Children:   []wire.NodeID{chld},
			ChildFlows: []wire.FlowID{0xc001},
			Key:        testKey(0x5a),
			DataMap:    []wire.DataForward{{Parent: par, Child: 0}},
		}, s.Clk.Now())
		if sendBoundaryHeartbeat {
			// lastHeard starts at t=0; the sweep at t=50ms is the first
			// where silence (50ms) exceeds the 40ms timeout (four 10ms
			// heartbeats). Land the
			// heartbeat at exactly t=50ms.
			s.At(50*time.Millisecond, func() {
				s.Net.Send(par, 1, wire.AppendHeartbeat(nil, flow))
			})
		}
		// Run past the boundary sweep but not so far that a *fresh* silence
		// window after the boundary heartbeat expires (50ms + 40ms).
		s.Run(85 * time.Millisecond)
		return n.Counters().Get("parent_down_sent")
	}
	if got := run(true); got != 0 {
		t.Fatalf("boundary heartbeat lost the race: %d report(s)", got)
	}
	if got := run(false); got == 0 {
		t.Fatal("silent parent never reported")
	}
}

// TestRoundWaitExpiryRacesArrival: the last missing slice of a round lands
// at exactly the RoundWait deadline. The delivery deterministically wins:
// the round forwards complete — once, with no regeneration — and the timer
// finds it already handled.
func TestRoundWaitExpiryRacesArrival(t *testing.T) {
	const (
		flow   = wire.FlowID(0xbeef)
		p1, p2 = wire.NodeID(11), wire.NodeID(12)
		chld   = wire.NodeID(21)
	)
	s, n := virtualNode(t, 1, Config{RoundWait: 40 * time.Millisecond})
	for _, id := range []wire.NodeID{p1, p2, chld} {
		if err := s.Net.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	injectFlowAt(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{chld},
		ChildFlows: []wire.FlowID{0xcafe},
		Key:        testKey(0x11),
		Recode:     true,
		DataMap: []wire.DataForward{
			{Parent: p1, Child: 0}, {Parent: p2, Child: 0},
		},
	}, s.Clk.Now())

	rng := rand.New(rand.NewSource(7))
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
	frame := func(sl code.Slice) []byte {
		slotLen := len(sl.Coeff) + len(sl.Payload) + 4
		buf := wire.AppendPacketHeader(nil, wire.MsgData, flow, 0, 2, uint16(slotLen), 1)
		return wire.AppendSlot(buf, sl)
	}
	// p1's slice opens the round at t=0, arming the 40ms round timer; p2's
	// slice lands at exactly the deadline.
	s.At(0, func() { s.Net.Send(p1, 1, frame(slices[0])) })
	s.At(40*time.Millisecond, func() { s.Net.Send(p2, 1, frame(slices[1])) })
	s.Run(100 * time.Millisecond)

	st := n.Counters()
	if st.Get("packets_out") != 2 {
		t.Fatalf("forwarded %d packets, want 2 (one per data-map entry, exactly once)", st.Get("packets_out"))
	}
	if st.Get("regenerated") != 0 {
		t.Fatalf("regenerated %d slices; the on-time arrival should have made regeneration unnecessary", st.Get("regenerated"))
	}
	checkBooks(t, n)
}

// TestRoundWaitForwardsAtExactInstant: a round that stays short forwards
// exactly RoundWait after its first slice, to the virtual nanosecond — also
// when the flow's one round timer was armed for an earlier round and has to
// re-arm for this one, and when an unrelated round completed in between.
func TestRoundWaitForwardsAtExactInstant(t *testing.T) {
	const (
		flow   = wire.FlowID(0xbeef)
		p1, p2 = wire.NodeID(11), wire.NodeID(12)
		chld   = wire.NodeID(21)
		wait   = 40 * time.Millisecond
	)
	s, n := virtualNode(t, 1, Config{RoundWait: wait})
	for _, id := range []wire.NodeID{p1, p2} {
		if err := s.Net.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	// The child stamps every round it is sent with the instant it arrived
	// (links are zero-delay, so that is the instant the relay forwarded).
	forwardedAt := map[uint32]time.Duration{}
	if err := s.Net.Attach(chld, func(_ wire.NodeID, b []byte) {
		forwardedAt[binary.BigEndian.Uint32(b[9:])] = s.Elapsed()
	}); err != nil {
		t.Fatal(err)
	}
	injectFlowAt(n, flow, &wire.PerNodeInfo{
		Children:   []wire.NodeID{chld},
		ChildFlows: []wire.FlowID{0xcafe},
		Key:        testKey(0x11),
		DataMap:    []wire.DataForward{{Parent: p1, Child: 0}},
	}, s.Clk.Now())
	// The data-map names one parent; make the flow wait on two so a round
	// with p1's slice alone is short.
	fs := n.shards[0].flows[flow]
	fs.setHops(append(fs.hops(), hop{id: p2}))

	rng := rand.New(rand.NewSource(7))
	enc, err := code.NewEncoder(2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	slices, err := enc.Encode(make([]byte, 600))
	if err != nil {
		t.Fatal(err)
	}
	send := func(at time.Duration, from wire.NodeID, sl code.Slice, seq uint32) {
		s.At(at, func() { s.Net.Send(from, 1, dataFrame(flow, seq, 2, sl)) })
	}
	firstSlice := map[uint32]time.Duration{
		0: 0,                         // arms the timer
		1: 7*time.Millisecond + 1,    // deadline between two others: the timer must re-arm onto it
		3: 13 * time.Millisecond,     // round 2 is skipped: a hole below a pending round
		4: wait + 5*time.Millisecond, // opens after the first deadline fired
	}
	for seq, at := range firstSlice {
		send(at, p1, slices[0], seq)
	}
	// Round 5 completes on its own in the middle of all that.
	send(20*time.Millisecond, p1, slices[0], 5)
	send(21*time.Millisecond, p2, slices[1], 5)
	s.Run(200 * time.Millisecond)

	for seq, at := range firstSlice {
		if got, ok := forwardedAt[seq]; !ok || got != at+wait {
			t.Errorf("round %d: first slice at %v, forwarded at %v (sent=%v), want exactly %v", seq, at, got, ok, at+wait)
		}
	}
	if got := forwardedAt[5]; got != 21*time.Millisecond {
		t.Errorf("complete round forwarded at %v, want the instant its last slice arrived (21ms)", got)
	}
	if _, ok := forwardedAt[2]; ok {
		t.Error("round 2 was never sent a slice, yet something was forwarded for it")
	}
	if w := &fs.win; w.low != w.high || fs.due[dlRound] != 0 {
		t.Errorf("window [%d,%d) round wait %v after every deadline ran out, want empty and disarmed", w.low, w.high, fs.due[dlRound])
	}
}

// TestGCSweepRacesSplice: a splice landing at exactly the GC sweep that
// would reap its idle flow refreshes the flow first (deliveries before
// timers) and keeps it alive; a splice arriving after the sweep finds the
// flow gone and — control traffic never creates state — dies silently.
func TestGCSweepRacesSplice(t *testing.T) {
	const flow = wire.FlowID(0x5711ce)
	key := testKey(0x77)
	mk := func(seq uint64, parent wire.NodeID) []byte {
		pi := &wire.PerNodeInfo{
			Children:   []wire.NodeID{41},
			ChildFlows: []wire.FlowID{0x41},
			Key:        key,
			Spliced:    true,
			DataMap:    []wire.DataForward{{Parent: parent, Child: 0}},
		}
		sealed, err := key.Seal(rand.New(rand.NewSource(int64(seq))), spliceBody(seq, pi))
		if err != nil {
			t.Fatal(err)
		}
		return wire.AppendSplice(nil, flow, sealed)
	}
	build := func() (*simnet.Script, *Node) {
		s, n := virtualNode(t, 1, Config{
			FlowTTL:    50 * time.Millisecond,
			GCInterval: 25 * time.Millisecond,
		})
		if err := s.Net.Attach(99, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
		injectFlowAt(n, flow, &wire.PerNodeInfo{
			Children:   []wire.NodeID{41},
			ChildFlows: []wire.FlowID{0x41},
			Key:        key,
			DataMap:    []wire.DataForward{{Parent: 31, Child: 0}},
		}, s.Clk.Now())
		return s, n
	}

	// Arm 1: splice at exactly the reaping sweep (t=75ms: 75ms idle > 50ms
	// TTL). The splice refreshes lastActive first; the flow survives.
	s, n := build()
	s.At(75*time.Millisecond, func() { s.Net.Send(99, 1, mk(1, 32)) })
	s.Run(80 * time.Millisecond)
	if got := n.Counters().Get("splices_applied"); got != 1 {
		t.Fatalf("mid-sweep splice applied %d times, want 1", got)
	}
	if got := n.FlowTableSize(); got != 1 {
		t.Fatalf("flow reaped despite same-instant splice: table size %d", got)
	}

	// Arm 2: splice strictly after the sweep. The flow is gone; the splice
	// must not resurrect it.
	s2, n2 := build()
	s2.At(76*time.Millisecond, func() { s2.Net.Send(99, 1, mk(1, 32)) })
	s2.Run(80 * time.Millisecond)
	if got := n2.Counters().Get("splices_applied"); got != 0 {
		t.Fatalf("post-sweep splice applied %d times, want 0", got)
	}
	if got := n2.FlowTableSize(); got != 0 {
		t.Fatalf("splice resurrected a reaped flow: table size %d", got)
	}
}
