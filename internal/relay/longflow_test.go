package relay

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"infoslicing/internal/code"
	"infoslicing/internal/slcrypto"
	"infoslicing/internal/wire"
)

// TestLongFlowFlatCostBoundedHeap is the regression test for state that
// grows with a flow's age: one flow runs 20 000 rounds through a forwarder,
// a receiver, and a last-stage bystander (neither destination nor
// forwarder). A round that is done must be gone — the last 2 000 rounds
// cost per packet what the first 2 000 rounds of a flow cost (timed on a
// second, young flow in alternation with the old one's last rounds, so both
// see the same machine), the heap is bounded by the window (each packet
// arrives in its own buffer, as a transport hands them over, so a retained
// view shows), the receiver holds no slice view once a round is decoded, the
// bystander never holds one at all, and every egress slab but the shard's
// open one is back in its pool (that one too, after Close).
func TestLongFlowFlatCostBoundedHeap(t *testing.T) {
	const (
		rounds  = 20_000
		edge    = 2_000 // rounds compared at each end of the flow
		batch   = 50    // rounds per timed batch
		d       = 2
		payload = 512
	)
	parents := []wire.NodeID{100, 101}
	key := testKey(0x42)

	// One round carries one sealed message, so the receiver decodes, opens
	// and delivers every round.
	rng := rand.New(rand.NewSource(5))
	sealed, err := key.Seal(rng, make([]byte, payload))
	if err != nil {
		t.Fatal(err)
	}
	chunk := append(binary.BigEndian.AppendUint32(nil, uint32(len(sealed))), sealed...)
	enc, err := code.NewEncoder(d, len(parents), rng)
	if err != nil {
		t.Fatal(err)
	}
	slices, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}

	roles := []struct {
		name string
		info *wire.PerNodeInfo
	}{
		{"forwarder", &wire.PerNodeInfo{
			Children:   []wire.NodeID{2, 3},
			ChildFlows: []wire.FlowID{55, 56},
			Key:        key,
			DataMap:    []wire.DataForward{{Parent: parents[0], Child: 0}, {Parent: parents[1], Child: 1}},
		}},
		{"receiver", &wire.PerNodeInfo{Receiver: true, Key: key, DataMap: parentsOnly(parents...)}},
		{"bystander", &wire.PerNodeInfo{Key: slcrypto.SymmetricKey{}, DataMap: parentsOnly(parents...)}},
	}
	type member struct {
		n      *Node
		sh     *shard
		fs     *flowState
		frames [][]byte
	}
	newMembers := func() []member {
		members := make([]member, len(roles))
		for i, role := range roles {
			flow := wire.FlowID(0x10f0 + i)
			n, err := New(wire.NodeID(i+1), &countingTransport{}, Config{Shards: 1, Rng: rand.New(rand.NewSource(int64(i)))})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(n.Close)
			m := member{n: n, sh: n.shardFor(flow), fs: injectFlow(n, flow, role.info)}
			for _, s := range slices {
				m.frames = append(m.frames, dataFrame(flow, 0, d, s))
			}
			members[i] = m
			go func() { // keep the receiver's delivery channel from filling
				for {
					select {
					case <-n.Received():
					case <-n.done:
						return
					}
				}
			}()
		}
		return members
	}
	// run feeds rounds [from, from+batch) to every member and times it.
	run := func(members []member, from int) time.Duration {
		start := time.Now()
		for seq := from; seq < from+batch; seq++ {
			for _, m := range members {
				for p, frame := range m.frames {
					pkt := append([]byte(nil), frame...)
					binary.BigEndian.PutUint32(pkt[9:], uint32(seq))
					m.n.process(m.sh, parents[p], pkt)
				}
			}
		}
		return time.Since(start)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	members := newMembers()
	for seq := 0; seq < edge; seq += batch {
		run(members, seq)
	}
	base := heap() // the windows exist and are warm; nothing below depends on age
	for seq := edge; seq < rounds-edge; seq += batch {
		run(members, seq)
	}
	grown := int64(heap()) - int64(base)

	// The fastest batch represents each flow: noise only ever adds time.
	young := newMembers()
	var first, last time.Duration
	for off := 0; off < edge; off += batch {
		if el := run(young, off); first == 0 || el < first {
			first = el
		}
		if el := run(members, rounds-edge+off); last == 0 || el < last {
			last = el
		}
	}

	perPkt := func(d time.Duration) time.Duration { return d / (batch * 3 * 2) }
	t.Logf("per packet: first %d rounds of a flow %v, last %d rounds of a %d-round flow %v; heap grew %d KiB over %d rounds",
		edge, perPkt(first), edge, rounds, perPkt(last), grown/1024, rounds-2*edge)
	if last > first+first/2 {
		t.Errorf("per-packet cost grew with the flow's age: %v in a young flow, %v at the end of an old one", perPkt(first), perPkt(last))
	}
	// Retaining even one 600-byte packet per round would be ~10 MiB here.
	if grown > 1<<20 {
		t.Errorf("heap grew %d KiB over %d rounds: state is held per round sent, not per round in flight", grown/1024, rounds-2*edge)
	}

	fwd, rcv, by := members[0], members[1], members[2]
	if got := fwd.n.Counters().Get("packets_out"); got != 2*rounds {
		t.Errorf("forwarder sent %d packets, want %d", got, 2*rounds)
	}
	if got := rcv.n.Counters().Get("messages_delivered"); got != rounds {
		t.Errorf("receiver delivered %d messages, want %d", got, rounds)
	}
	if by.fs.tail != nil {
		t.Errorf("bystander allocated a round window")
	}
	for _, m := range []member{fwd, rcv} {
		w, ring := &m.fs.win, ringOf(m.fs)
		if len(ring) > minWindow || w.low != rounds || w.high != rounds {
			t.Errorf("%v: window [%d,%d) in %d slots after an in-order flow, want [%d,%d) in %d",
				m.n, w.low, w.high, len(ring), rounds, rounds, minWindow)
		}
		for i := range ring {
			if len(ring[i].got) != 0 || ring[i].chunk != nil {
				t.Errorf("%v: slot %d still holds a view or a chunk", m.n, i)
			}
		}
	}
	for _, m := range members {
		// Running, a shard keeps its open slab (and no other); closed, none.
		if got := m.n.egPool.Outstanding(); got > int64(len(m.n.shards)) {
			t.Errorf("node %d: %d egress slabs outstanding on %d shards", m.n.id, got, len(m.n.shards))
		}
		m.n.Close()
		if got := m.n.egPool.Outstanding(); got != 0 {
			t.Errorf("node %d: %d egress slabs outstanding after Close", m.n.id, got)
		}
	}
	checkBooks(t, fwd.n, rcv.n, by.n)
}
