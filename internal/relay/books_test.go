package relay

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/simnet"
	"infoslicing/internal/wire"
)

// checkBooks holds every node to its conservation laws (Node.Books): each
// slice a shard took in, and each round it opened, is accounted for.
func checkBooks(tb testing.TB, nodes ...*Node) {
	tb.Helper()
	for _, n := range nodes {
		if err := n.Books(); err != nil {
			tb.Error(err)
		}
	}
}

// checkStatsView holds the benchmark's Stats view to the counters it names.
// Timers may still count while it reads, so each field must lie between a
// reading taken before the view and one taken after.
func checkStatsView(tb testing.TB, n *Node) {
	tb.Helper()
	before, st, after := n.Counters(), n.Stats(), n.Counters()
	for name, v := range map[string]int64{
		"data_in": st.DataPacketsIn, "packets_out": st.PacketsOut,
		"regenerated": st.Regenerated, "rounds_skipped": st.RoundsSkipped,
		"app_dropped": st.Dropped, "queue_drops": st.QueueDrops,
		"send_drops": st.SendDrops, "flows_evicted": st.FlowsEvicted,
		"flows_rejected": st.FlowsRejected, "filter_misses": st.FilterMisses,
	} {
		if v < before.Get(name) || v > after.Get(name) {
			tb.Errorf("relay %d: Stats says %s=%d, counters %d..%d", n.ID(), name, v, before.Get(name), after.Get(name))
		}
	}
}

// The shard's and the node's vocabularies join into one reading, so no name
// may appear in both.
func TestCountersVocabulariesDisjoint(t *testing.T) {
	for _, name := range nodeVocab {
		for _, other := range shardVocab {
			if name == other {
				t.Errorf("%q is both a shard and a node counter", name)
			}
		}
	}
	if len(shardVocab) != nShardCounters {
		t.Fatalf("shard vocabulary has %d names for %d counters", len(shardVocab), nShardCounters)
	}
}

// A flow leaves the table holding data that raced ahead of its set-up and
// rounds still open: TTL eviction and Close's sweep each name what went
// with it, and the books balance before, between and after.
func TestBooksEvictionAndSweep(t *testing.T) {
	const (
		pending = wire.FlowID(0x9e1) // data, no set-up: held pending
		open    = wire.FlowID(0x9e2) // established, one round short
		p1, p2  = wire.NodeID(11), wire.NodeID(12)
	)
	s, n := virtualNode(t, 1, Config{FlowTTL: 50 * time.Millisecond, GCInterval: 10 * time.Millisecond,
		RoundWait: time.Hour, GapWait: time.Hour})
	for _, id := range []wire.NodeID{p1, p2} {
		if err := s.Net.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	slices := testSlices(t, 2, 2)
	pi := &wire.PerNodeInfo{Receiver: true, Key: testKey(7)}
	newRound := func(flow wire.FlowID, seq uint32) {
		s.Net.Send(p1, 1, dataFrame(flow, seq, 2, slices[0]))
	}
	injectFlowAt(n, open, pi, s.Clk.Now())
	for seq := uint32(0); seq < 3; seq++ {
		s.Net.Send(p1, 1, dataFrame(pending, seq, 2, slices[0]))
		newRound(open, seq)
	}
	s.Run(time.Millisecond)
	c := n.Counters()
	if c.Get("rounds_opened") != 3 || c.Get("slices_filed") != 3 || c.Get("data_in") != 6 {
		t.Fatalf("counters %v, want 3 rounds opened by 3 filed slices of 6 in", c)
	}
	checkBooks(t, n)

	s.Run(200 * time.Millisecond) // both flows idle past the TTL
	c = n.Counters()
	if c.Get("pending_evicted") != 3 || c.Get("rounds_evicted") != 3 || c.Get("flows_evicted") != 2 {
		t.Fatalf("counters %v, want 3 pending slices and 3 open rounds evicted with 2 flows", c)
	}
	checkBooks(t, n)

	injectFlowAt(n, open, pi, s.Clk.Now())
	s.Net.Send(p2, 1, dataFrame(pending, 0, 2, slices[1]))
	newRound(open, 7)
	s.Run(s.Elapsed() + time.Millisecond)
	n.Close()
	c = n.Counters()
	if c.Get("pending_swept") != 1 || c.Get("rounds_swept") != 1 {
		t.Fatalf("counters %v, want one pending slice and one open round swept by Close", c)
	}
	checkBooks(t, n)
}

// Rounds end done or expired: a receiver decodes its rounds, and the one it
// never could — a single slice of a d=2 split — is written off when the
// stream skips past it.
func TestBooksRoundsDoneAndExpired(t *testing.T) {
	const (
		flow   = wire.FlowID(0x9e3)
		p1, p2 = wire.NodeID(11), wire.NodeID(12)
	)
	s, n := virtualNode(t, 1, Config{RoundWait: 5 * time.Millisecond})
	for _, id := range []wire.NodeID{p1, p2} {
		if err := s.Net.Attach(id, func(wire.NodeID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	injectFlowAt(n, flow, &wire.PerNodeInfo{Receiver: true, Key: testKey(7)}, s.Clk.Now())
	slices := testSlices(t, 2, 2)
	for seq := uint32(0); seq < 4; seq++ {
		s.Net.Send(p1, 1, dataFrame(flow, seq, 2, slices[0]))
		if seq != 1 {
			s.Net.Send(p2, 1, dataFrame(flow, seq, 2, slices[1]))
		}
	}
	s.Run(time.Second)
	c := n.Counters()
	if c.Get("rounds_opened") != 4 || c.Get("rounds_done") != 3 || c.Get("rounds_expired") != 1 {
		t.Fatalf("counters %v, want 4 rounds: 3 decoded, the short one expired", c)
	}
	checkBooks(t, n)
}

// Close throws away what is still queued when it begins, by name: the
// worker is held in a mailbox call while packets queue behind it.
func TestBooksCloseAbandonsQueued(t *testing.T) {
	n, err := New(1, &countingTransport{}, Config{Shards: 1, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	sh := n.shards[0]
	held, free := make(chan struct{}), make(chan struct{})
	go sh.do(func() { close(held); <-free })
	<-held
	for i := 0; i < 3; i++ {
		n.onPacket(11, junkDataFrame(wire.FlowID(0x9e4)))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); n.Close() }()
	simnet.Eventually(5*time.Second, time.Millisecond, func() bool {
		select {
		case <-n.done:
			return true
		default:
			return false
		}
	})
	close(free)
	wg.Wait()
	if c := n.Counters(); c.Get("queue_abandoned") != 3 || c.Get("data_in") != 0 {
		t.Fatalf("counters %v, want the 3 queued packets abandoned unprocessed", c)
	}
	checkBooks(t, n)
}

// testSlices codes one chunk into dp slices of a d-split.
func testSlices(t testing.TB, d, dp int) []code.Slice {
	t.Helper()
	enc, err := code.NewEncoder(d, dp, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	slices, err := enc.Encode(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	return slices
}
