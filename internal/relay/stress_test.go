package relay

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/overlay"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// recordTransport counts forwarded packets per (destination, seq) so the
// stress test can assert exactly-once forwarding. Shard workers call Send
// concurrently, so it locks.
type recordTransport struct {
	overlay.TransportBase
	mu    sync.Mutex
	sends map[[2]uint64]int // (to, seq) -> count
	total int64
}

func (t *recordTransport) Attach(wire.NodeID, overlay.Handler) error { return nil }
func (t *recordTransport) Detach(wire.NodeID)                        {}
func (t *recordTransport) Send(from, to wire.NodeID, data []byte) error {
	seq := binary.BigEndian.Uint32(data[9:])
	t.mu.Lock()
	if t.sends == nil {
		t.sends = make(map[[2]uint64]int)
	}
	t.sends[[2]uint64{uint64(to), uint64(seq)}]++
	t.total++
	t.mu.Unlock()
	return nil
}

func (t *recordTransport) snapshotTotal() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// TestConcurrentFlowsStress pushes many flows through one relay at once —
// run it under -race to exercise the sharded pipeline. Half the flows see
// churn: one parent goes silent mid-stream (forcing the dead-parent timer
// and network-coding regeneration) and comes back for the final rounds
// (exercising the un-mark path). Every round of every flow must be
// forwarded to every child exactly once — no lost rounds, no duplicates —
// and the node's books must balance with its view agreeing with them.
func TestConcurrentFlowsStress(t *testing.T) {
	const (
		flows    = 24
		rounds   = 40
		d        = 2
		dp       = 3          // parents per flow
		churnAt  = rounds / 2 // churned parent silent for [churnAt, reviveAt)
		reviveAt = rounds - 3
	)
	tr := &recordTransport{}
	n, err := New(1, tr, Config{
		// Generous RoundWait: only churned rounds should time out, not
		// healthy rounds briefly delayed by race-detector scheduling.
		RoundWait: 400 * time.Millisecond,
		Shards:    8,
		Rng:       rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// One coded round shared by all flows (the CRC covers only the slot, so
	// the same slices serve every seq).
	rng := rand.New(rand.NewSource(2))
	enc, err := code.NewEncoder(d, dp, rng)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 600*d)
	rng.Read(chunk)
	slices, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Precondition for the churn half: the survivors (parents 0..d-1) must
	// span the round so the silent parent's slice can be regenerated.
	if !code.Decodable(d, slices[:d]) {
		t.Fatal("seed produced a non-decodable survivor set; pick another seed")
	}

	// Build and inject one established flow per f: dp parents feeding dp
	// children, Recode on so a silent parent's slice is regenerated.
	type flowSetup struct {
		flow     wire.FlowID
		parents  []wire.NodeID
		children []wire.NodeID
		churned  bool
		frames   [][]byte // one framed template per parent; seq patched in
	}
	setups := make([]flowSetup, flows)
	for f := 0; f < flows; f++ {
		flow := wire.FlowID(0xbeef_0000 + uint64(f)*7919)
		parents := make([]wire.NodeID, dp)
		children := make([]wire.NodeID, dp)
		childFlows := make([]wire.FlowID, dp)
		dataMap := make([]wire.DataForward, dp)
		for p := 0; p < dp; p++ {
			parents[p] = wire.NodeID(10_000 + f*16 + p)
			children[p] = wire.NodeID(500_000 + f*16 + p)
			childFlows[p] = wire.FlowID(0xcafe_0000 + uint64(f)*31 + uint64(p))
			dataMap[p] = wire.DataForward{Parent: parents[p], Child: uint8(p)}
		}
		injectFlow(n, flow, &wire.PerNodeInfo{
			Children:   children,
			ChildFlows: childFlows,
			Recode:     true,
			DataMap:    dataMap,
		})

		frames := make([][]byte, dp)
		for p := 0; p < dp; p++ {
			s := slices[p]
			slotLen := len(s.Coeff) + len(s.Payload) + 4
			buf := wire.AppendPacketHeader(nil, wire.MsgData, flow, 0, d, uint16(slotLen), 1)
			frames[p] = wire.AppendSlot(buf, s)
		}
		setups[f] = flowSetup{
			flow: flow, parents: parents, children: children,
			churned: f%2 == 0, frames: frames,
		}
	}

	// Blast all flows concurrently: one goroutine per (flow, parent), each
	// handing the relay a private buffer per packet, exactly as a transport
	// would.
	var wg sync.WaitGroup
	for f := range setups {
		su := &setups[f]
		for p := 0; p < dp; p++ {
			wg.Add(1)
			go func(su *flowSetup, p int) {
				defer wg.Done()
				for seq := 0; seq < rounds; seq++ {
					if su.churned && p == dp-1 && seq >= churnAt && seq < reviveAt {
						continue // this parent is down for these rounds
					}
					pkt := append([]byte(nil), su.frames[p]...)
					binary.BigEndian.PutUint32(pkt[9:], uint32(seq))
					n.onPacket(su.parents[p], pkt)
				}
			}(su, p)
		}
	}
	wg.Wait()

	// Every round of every flow forwards to all dp children (silent
	// parents' slices are regenerated), so the expected total is exact.
	want := int64(flows * rounds * dp)
	deadline := time.Now().Add(30 * time.Second)
	for tr.snapshotTotal() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// One straggler per flow — round 0 again, long forwarded — so the
	// late-slice counter is non-zero in the books checked below.
	for f := range setups {
		n.onPacket(setups[f].parents[0], append([]byte(nil), setups[f].frames[0]...))
	}
	if !simnet.Eventually(10*time.Second, time.Millisecond, func() bool { return n.Counters().Get("late_slices") >= flows }) {
		t.Fatalf("late_slices = %d after %d stragglers", n.Counters().Get("late_slices"), flows)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.total != want {
		t.Fatalf("forwarded %d packets, want %d (lost rounds or duplicates)", tr.total, want)
	}
	for _, su := range setups {
		for _, child := range su.children {
			for seq := 0; seq < rounds; seq++ {
				got := tr.sends[[2]uint64{uint64(child), uint64(seq)}]
				if got != 1 {
					t.Fatalf("flow %#x child %d seq %d forwarded %d times, want 1",
						su.flow, child, seq, got)
				}
			}
		}
	}

	// The books balance, the view is the counters, and the numbers match
	// the traffic we generated.
	checkBooks(t, n)
	checkStatsView(t, n)
	stats := n.Counters()
	used := 0
	for _, sh := range n.shards {
		sh.do(func() {
			if sh.ctr[cDataIn] > 0 {
				used++
			}
		})
	}
	if got := stats.Get("queue_drops"); got != 0 {
		t.Fatalf("dropped %d packets at shard queues", got)
	}
	silentPerChurned := int64(reviveAt - churnAt)
	churnedFlows := int64((flows + 1) / 2)
	wantIn := int64(flows*rounds*dp) - silentPerChurned*churnedFlows + flows // + the stragglers
	if got := stats.Get("data_in"); got != wantIn {
		t.Fatalf("data_in = %d, want %d", got, wantIn)
	}
	if got := stats.Get("packets_out"); got != want {
		t.Fatalf("packets_out = %d, want %d", got, want)
	}
	// Every silent round regenerates one slice. Spurious RoundWait timeouts
	// on a heavily preempted run can only add regenerations (the late real
	// slice is absorbed without a duplicate forward), so this is a floor.
	if got := stats.Get("regenerated"); got < silentPerChurned*churnedFlows {
		t.Fatalf("regenerated = %d, want >= %d", got, silentPerChurned*churnedFlows)
	}
	if used < 2 {
		t.Fatalf("flows landed on %d shard(s); striping is broken", used)
	}
}

// TestStatsViewMatchesCounters drives a real flow end to end and holds the
// benchmark's Stats view to the counters it names, and every relay to its
// books.
func TestStatsViewMatchesCounters(t *testing.T) {
	h := newHarness(t, 2, 2, 2, 201, true)
	defer h.close()
	h.establish(t)
	if err := h.sender.Send([]byte("count me")); err != nil {
		t.Fatal(err)
	}
	h.waitMsg(t, 5*time.Second)
	h.checkBooks(t)
	for _, n := range h.nodes {
		checkStatsView(t, n)
		if c := n.Counters(); c.Get("setup_in") == 0 || c.Get("flows_established") != 1 {
			t.Errorf("relay %d: counters %v, want set-up packets in and one flow established", n.ID(), c)
		}
	}
}
