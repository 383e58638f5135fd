package relay

import (
	"bytes"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"infoslicing/internal/core"
	"infoslicing/internal/simnet"
	"infoslicing/internal/source"
	"infoslicing/internal/wire"
)

// junkDataFrame builds a minimal MsgData frame for flow f: enough to create
// flow state at a relay (creation happens before slot verification), cheap
// enough to mint by the million.
func junkDataFrame(f wire.FlowID) []byte {
	p := &wire.Packet{Type: wire.MsgData, Flow: f, CoeffLen: 2,
		SlotLen: 8, Slots: [][]byte{make([]byte, 8)}}
	return p.Marshal()
}

// tenantFlows reads the per-tenant occupancy (an empty map when quotas are
// disabled).
func (n *Node) tenantFlows() map[wire.NodeID]int64 {
	n.tenantMu.Lock()
	defer n.tenantMu.Unlock()
	return maps.Clone(n.tenants)
}

// TestCloseInsertRaceFlowCount pins the Close-vs-insert accounting fix: the
// shard workers are joined before Close sweeps the table, so a creation
// racing Close either lands (and the sweep releases its reservation) or is
// refused by the worker's done-check — never a leaked flowCount. Queries ride
// the workers' mailboxes, so they race Close too: one in flight when the
// workers exit, or made on the closed node, must return (against the swept
// table) rather than wait on a mailbox nobody reads, and a clock timer that
// fires late must neither wedge nor outlive Close. Run under -race this also
// exercises the teardown ordering for data races.
func TestCloseInsertRaceFlowCount(t *testing.T) {
	for round := 0; round < 8; round++ {
		goroutines := runtime.NumGoroutine()
		tr := &countingTransport{}
		n, err := New(1, tr, Config{
			Rng:         rand.New(rand.NewSource(int64(round))),
			Shards:      4,
			MaxFlows:    1 << 16,
			TenantQuota: 1 << 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		queries := func() {
			n.Counters()
			if err := n.Books(); err != nil { // read per shard, so it balances mid-race too
				t.Error(err)
			}
			n.Established(wire.FlowID(uint64(round) << 32))
			n.tenantFlows()
			for _, sh := range n.shards {
				sh.onTimer()
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					queries()
					select {
					case <-n.closeDone:
						return
					default:
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					f := wire.FlowID(uint64(round)<<32 | uint64(g)<<24 | uint64(i))
					n.onPacket(wire.NodeID(100+g), junkDataFrame(f))
					if i%64 == 63 {
						select {
						case <-n.done:
							return
						default:
						}
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		n.Close()
		wg.Wait()
		if got := n.flowCount.Load(); got != 0 {
			t.Fatalf("round %d: flowCount = %d after Close, want 0 (leaked reservations)", round, got)
		}
		for i, sh := range n.shards {
			if left := len(sh.flows); left != 0 {
				t.Fatalf("round %d: shard %d still holds %d flows after Close", round, i, left)
			}
			if sh.tickAt != 0 || len(sh.deadlines) != 0 {
				t.Fatalf("round %d: shard %d closed with %d deadlines pending, timer armed for %d", round, i, len(sh.deadlines), sh.tickAt)
			}
		}
		queries()
		checkBooks(t, n)
		if got := len(n.tenantFlows()); got != 0 {
			t.Fatalf("round %d: %d tenants still hold reservations after Close", round, got)
		}
		if got := n.egPool.Outstanding(); got != 0 {
			t.Fatalf("round %d: %d egress slabs outstanding after Close", round, got)
		}
		if !simnet.Eventually(5*time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= goroutines }) {
			t.Fatalf("round %d: %d goroutines after Close, %d before New", round, runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestEvictionUnderLoad drives the eviction sweep on a virtual clock from
// both sides: flows that went idle are reaped, flows that are in use are not.
func TestEvictionUnderLoad(t *testing.T) {
	t.Run("idle flows age out and re-admit", evictIdleFlows)
	t.Run("live flows survive the sweep", liveFlowsSurviveSweeps)
}

// evictIdleFlows is the full eviction lifecycle: idle flows age out of the
// LRU sweep (counted FlowsEvicted, all reservations released), control
// traffic for evicted flows is dropped on the shard without recreating state,
// and the same flow ids re-admit cleanly afterwards — map, LRU and flowCount
// all consistent.
func evictIdleFlows(t *testing.T) {
	const flows = 32
	const src = wire.NodeID(99)
	s, n := virtualNode(t, 1, Config{
		FlowTTL:    50 * time.Millisecond,
		GCInterval: 25 * time.Millisecond,
	})
	if err := s.Net.Attach(src, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatal(err)
	}
	fid := func(i int) wire.FlowID { return wire.FlowID(0xab_0000 + uint64(i)*7919) }
	for i := 0; i < flows; i++ {
		s.Net.Send(src, 1, junkDataFrame(fid(i)))
	}
	s.Run(10 * time.Millisecond)
	if got := n.FlowTableSize(); got != flows {
		t.Fatalf("installed %d flows, want %d", got, flows)
	}

	// Let every flow idle past the TTL; the incremental sweep must reap all
	// of them and release every admission reservation.
	s.Run(200 * time.Millisecond)
	if got := n.FlowTableSize(); got != 0 {
		t.Fatalf("%d flows survived the TTL sweep", got)
	}
	if got := n.Counters().Get("flows_evicted"); got != flows {
		t.Fatalf("flows_evicted = %d, want %d", got, flows)
	}

	// Post-eviction, a heartbeat for a reaped flow reaches its shard and dies
	// at the map miss: no state comes back, and every drop is counted.
	preUnmatched := n.Counters().Get("unmatched")
	for i := 0; i < flows; i++ {
		s.Net.Send(src, 1, wire.AppendHeartbeat(nil, fid(i)))
	}
	s.Run(210 * time.Millisecond)
	if got := n.FlowTableSize(); got != 0 {
		t.Fatalf("heartbeats resurrected %d evicted flows", got)
	}
	if got := n.Counters().Get("unmatched") - preUnmatched; got != flows {
		t.Fatalf("unmatched moved by %d for %d evicted-flow heartbeats", got, flows)
	}

	// The same ids re-admit cleanly: fresh fingerprints, fresh LRU links,
	// no rejected creations, no drifted flowCount.
	for i := 0; i < flows; i++ {
		s.Net.Send(src, 1, junkDataFrame(fid(i)))
	}
	s.Run(220 * time.Millisecond)
	if got := n.FlowTableSize(); got != flows {
		t.Fatalf("re-admitted %d flows, want %d", got, flows)
	}
	if got := n.Counters().Get("flows_rejected"); got != 0 {
		t.Fatalf("FlowsRejected = %d on re-admission, want 0", got)
	}
	checkBooks(t, n)
}

// liveFlowsSurviveSweeps is the no-GC-cliff check: with the sweep firing
// every 5 ms and a TTL only a few message gaps long, flows kept alive by
// nothing but their own traffic sit through hundreds of sweep ticks at
// every relay without one eviction or rejection, and every message is
// delivered intact and in order.
func liveFlowsSurviveSweeps(t *testing.T) {
	const (
		l, d  = 2, 2
		flows = 3
		msgs  = 100
		gap   = 20 * time.Millisecond
		sweep = 5 * time.Millisecond
	)
	simnet.ReportSeed(t)
	s := simnet.NewScript(5, simnet.LinkProfile{Delay: 500 * time.Microsecond})
	relays := make([]wire.NodeID, l*d)
	nodes := make([]*Node, len(relays))
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
		n, err := New(relays[i], s.Net, Config{
			SetupWait:  50 * time.Millisecond,
			RoundWait:  50 * time.Millisecond,
			FlowTTL:    5 * gap,
			GCInterval: sweep,
			MaxFlows:   64,
			Shards:     1,
			Clock:      s.Clk,
			Rng:        rand.New(rand.NewSource(int64(i + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[i] = n
	}
	// Every flow crosses all four relays, each ending at a different one.
	snds := make([]*source.Sender, flows)
	flowOf := make(map[wire.FlowID]int, flows) // destination flow-id → flow
	var next [flows]int                        // next message expected per flow
	for f := range snds {
		srcs := make([]wire.NodeID, d)
		for i := range srcs {
			srcs[i] = wire.NodeID(9000 + f*16 + i)
			if err := s.Net.Attach(srcs[i], func(wire.NodeID, []byte) {}); err != nil {
				t.Fatal(err)
			}
		}
		g, err := core.Build(core.Spec{
			L: l, D: d, DPrime: d,
			Relays: relays, Dest: relays[f], Sources: srcs,
			Recode: true, Scramble: true,
			Rng: rand.New(rand.NewSource(int64(100 + f))),
		})
		if err != nil {
			t.Fatal(err)
		}
		snds[f] = source.New(s.Net, g, source.Config{ChunkPayload: 256, Clock: s.Clk},
			rand.New(rand.NewSource(int64(200+f))))
		if err := snds[f].Establish(); err != nil {
			t.Fatal(err)
		}
		if !awaitFlows(s.Clk, time.Second, g, nodes...) {
			t.Fatalf("flow %d never established", f)
		}
		flowOf[g.Flows[g.Dest]] = f
	}
	payload := func(f, m int) []byte { return bytes.Repeat([]byte{byte(f + 1), byte(m)}, 300) }
	drain := func() {
		for _, n := range nodes {
			for len(n.Received()) > 0 {
				got := <-n.Received()
				f, ok := flowOf[got.Flow]
				if !ok {
					t.Fatalf("delivery for unknown flow %x", got.Flow)
				}
				if !bytes.Equal(got.Data, payload(f, next[f])) {
					t.Fatalf("flow %d message %d corrupted or out of order", f, next[f])
				}
				next[f]++
			}
		}
	}
	start := s.Elapsed()
	for m := 0; m < msgs; m++ {
		for f, snd := range snds {
			if err := snd.Send(payload(f, m)); err != nil {
				t.Fatal(err)
			}
		}
		s.Clk.RunFor(gap)
		drain()
	}
	if ticks := (s.Elapsed() - start) / sweep; ticks < 200 {
		t.Fatalf("only %d sweep ticks inside the data phase, want hundreds", ticks)
	}
	for f, m := range next {
		if m != msgs {
			t.Errorf("flow %d delivered %d/%d messages", f, m, msgs)
		}
	}
	for _, n := range nodes {
		if st := n.Counters(); st.Get("flows_evicted") != 0 || st.Get("flows_rejected") != 0 {
			t.Errorf("node %d churned live flows under sweep pressure: evicted=%d rejected=%d",
				n.ID(), st.Get("flows_evicted"), st.Get("flows_rejected"))
		}
		if got := n.FlowTableSize(); got != flows {
			t.Errorf("node %d holds %d flows, want %d", n.ID(), got, flows)
		}
		checkBooks(t, n)
	}
}

// TestTenantQuotaNoStarvation: one tenant sitting at its quota cannot
// starve admission for another — and eviction hands quota back.
func TestTenantQuotaNoStarvation(t *testing.T) {
	tr := &countingTransport{}
	n, err := New(1, tr, Config{
		Rng:         rand.New(rand.NewSource(5)),
		Shards:      1,
		MaxFlows:    100,
		TenantQuota: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const greedy, modest = wire.NodeID(7), wire.NodeID(8)
	sh := n.shards[0]
	// The greedy tenant pushes 10 creations: 3 admitted, 7 rejected.
	for i := 0; i < 10; i++ {
		n.process(sh, greedy, junkDataFrame(wire.FlowID(0x100+uint64(i))))
	}
	if got := n.FlowTableSize(); got != 3 {
		t.Fatalf("greedy tenant holds %d flows, want 3 (quota)", got)
	}
	if got := n.Counters().Get("flows_rejected"); got != 7 {
		t.Fatalf("FlowsRejected = %d, want 7", got)
	}
	if ev := n.FlowEvents(0x109); len(ev) != 1 || !strings.HasSuffix(ev[0].String(), " reject reason=tenant_quota") {
		t.Fatalf("a refused flow recorded %v, want one tenant_quota reject", ev)
	}
	// The modest tenant is unaffected by the greedy one's rejections.
	for i := 0; i < 2; i++ {
		n.process(sh, modest, junkDataFrame(wire.FlowID(0x200+uint64(i))))
	}
	if got := n.FlowTableSize(); got != 5 {
		t.Fatalf("table = %d flows, want 5 (3 greedy + 2 modest)", got)
	}
	occ := n.tenantFlows()
	if occ[greedy] != 3 || occ[modest] != 2 {
		t.Fatalf("tenantFlows = %v, want greedy:3 modest:2", occ)
	}
	// Eviction releases quota: age the greedy tenant's flows out and its
	// next creation is admitted again.
	sh.do(func() {
		for _, fs := range sh.flows {
			if fs.tenant == greedy {
				fs.lastActive -= int64(time.Hour)
			}
		}
		// The LRU order key (lastActive) changed behind the list's back; rebuild
		// by touching the modest flows so the aged ones sit at the cold end.
		for _, fs := range sh.flows {
			if fs.tenant == modest {
				sh.lruTouch(fs)
			}
		}
	})
	sh.do(func() { n.tick(sh, sh.gcAt) })
	if got := n.FlowTableSize(); got != 2 {
		t.Fatalf("table = %d flows after sweep, want 2", got)
	}
	if ev := n.FlowEvents(0x100); len(ev) < 2 || ev[0].Kind != EvAdmit || ev[0].Arg != uint64(greedy) || ev[len(ev)-1].Kind != EvEvict {
		t.Fatalf("an evicted flow recorded %v, want admit from=%d first and evict last", ev, greedy)
	}
	n.process(sh, greedy, junkDataFrame(wire.FlowID(0x300)))
	if got := n.tenantFlows()[greedy]; got != 1 {
		t.Fatalf("greedy tenant holds %d flows after re-admission, want 1", got)
	}
}

// TestMillionFlowBoundedMemory holds 10^6 concurrent flow states and
// reports bytes/flow — the daemon's headline capacity claim. Lazy phase
// state is what makes this affordable: an idle flow pays for its record and
// its hop table and nothing else. Under -short (and CI's race job) a
// scaled-down variant keeps the same arithmetic honest.
func TestMillionFlowBoundedMemory(t *testing.T) {
	flows := 1 << 20
	if testing.Short() || raceEnabled {
		// CI's race job (and -short runs) keep the same arithmetic at a
		// size the detector's overhead can afford.
		flows = 1 << 17
	}
	tr := &countingTransport{}
	n, err := New(1, tr, Config{
		Rng:        rand.New(rand.NewSource(9)),
		Shards:     1,
		MaxFlows:   flows,
		FlowTTL:    time.Hour,
		GCInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sh := n.shards[0]
	frame := junkDataFrame(0)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < flows; i++ {
		// Retarget one marshaled frame per flow instead of re-marshalling a
		// million of them.
		wire.PatchFlow(frame, wire.FlowID(0x5eed_0000_0000+uint64(i)))
		n.process(sh, wire.NodeID(100+i%256), frame)
	}
	if got := n.FlowTableSize(); got != flows {
		t.Fatalf("installed %d flows, want %d", got, flows)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perFlow := float64(after.HeapAlloc-before.HeapAlloc) / float64(flows)
	t.Logf("%d flows: %.0f bytes/flow (heap %0.1f MiB)", flows, perFlow,
		float64(after.HeapAlloc-before.HeapAlloc)/(1<<20))
	// Ceiling calibrated against today's layout (~0.57 KB/flow: the flow
	// record with its inline hop table, a tail holding one buffered pre-setup
	// packet's slot views, and the map entry). A record past its 320-byte
	// size class costs 32 bytes more per flow, and a pending packet kept as a
	// parsed clone 96, so 640 bytes separates regression from allocator noise
	// without being hostage to the exact runtime version.
	if perFlow > 640 {
		t.Fatalf("%.0f bytes/flow exceeds the 640-byte bound", perFlow)
	}

	// At a full table a heartbeat for an absent flow reaches the worker and
	// is dropped there, counted, without creating state; one for a resident
	// flow finds it.
	pre := n.Counters()
	n.process(sh, 1, wire.AppendHeartbeat(nil, wire.FlowID(0xffff_ffff_0000_0001)))
	n.process(sh, 1, wire.AppendHeartbeat(nil, wire.FlowID(0x5eed_0000_0000)))
	moved := n.Counters().Sub(pre)
	if moved.Get("unmatched") != 1 || moved.Get("heartbeats_in") != 1 {
		t.Fatalf("unmatched moved by %d, heartbeats_in by %d; want 1 and 1",
			moved.Get("unmatched"), moved.Get("heartbeats_in"))
	}
	if got := n.FlowTableSize(); got != flows {
		t.Fatal("heartbeat for an absent flow created state")
	}
}
