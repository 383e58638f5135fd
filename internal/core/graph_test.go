package core

import (
	"bytes"
	"math/rand"
	"testing"

	"infoslicing/internal/code"
	"infoslicing/internal/wire"
)

// makeSpec builds a spec with sequential node IDs: relays 1..L*dp (dest is
// relay 1), sources 1000..1000+dp-1.
func makeSpec(l, d, dp int, seed int64, scramble bool) Spec {
	relays := make([]wire.NodeID, l*dp)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	sources := make([]wire.NodeID, dp)
	for i := range sources {
		sources[i] = wire.NodeID(1000 + i)
	}
	return Spec{
		L: l, D: d, DPrime: dp,
		Relays: relays, Dest: relays[0], Sources: sources,
		Scramble: scramble, Recode: true,
		Rng: rand.New(rand.NewSource(seed)),
	}
}

func TestBuildSpecValidation(t *testing.T) {
	base := makeSpec(3, 2, 2, 1, false)
	cases := []func(*Spec){
		func(s *Spec) { s.L = 0 },
		func(s *Spec) { s.D = 0 },
		func(s *Spec) { s.DPrime = 1 }, // < D and wrong relay count
		func(s *Spec) { s.Relays = s.Relays[:3] },
		func(s *Spec) { s.Sources = s.Sources[:1] },
		func(s *Spec) { s.Rng = nil },
		func(s *Spec) { s.Dest = 999 },
		func(s *Spec) { s.Relays[1] = s.Relays[0] },
		func(s *Spec) { s.Sources[0] = s.Relays[0] },
	}
	for i, mutate := range cases {
		s := makeSpec(3, 2, 2, 1, false)
		mutate(&s)
		if _, err := Build(s); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
	if _, err := Build(base); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestStageLayout(t *testing.T) {
	g, err := Build(makeSpec(4, 2, 3, 7, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Stages) != 4 {
		t.Fatalf("stages=%d", len(g.Stages))
	}
	seen := map[wire.NodeID]bool{}
	for _, st := range g.Stages {
		if len(st) != 3 {
			t.Fatalf("stage width %d", len(st))
		}
		for _, id := range st {
			if seen[id] {
				t.Fatalf("node %d appears twice", id)
			}
			seen[id] = true
		}
	}
	if g.DestStage < 1 || g.DestStage > 4 {
		t.Fatalf("dest stage %d", g.DestStage)
	}
	if g.Stages[g.DestStage-1][g.DestPos] != g.Dest {
		t.Fatal("dest position wrong")
	}
	if g.StageOf(g.Dest) != g.DestStage {
		t.Fatal("StageOf disagrees")
	}
	if g.StageOf(9999) != 0 {
		t.Fatal("unknown node should have stage 0")
	}
}

func TestDestinationPlacementIsUniformish(t *testing.T) {
	counts := make([]int, 5)
	for seed := int64(0); seed < 400; seed++ {
		g, err := Build(makeSpec(5, 2, 2, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		counts[g.DestStage-1]++
	}
	for st, c := range counts {
		if c < 40 || c > 140 { // expect ~80 per stage
			t.Fatalf("stage %d got %d placements — not uniform", st+1, c)
		}
	}
}

// Vertex-disjointness: for every owner, slice paths share no relay.
func TestSlicePathsVertexDisjoint(t *testing.T) {
	for _, cfg := range []struct{ l, d, dp int }{{3, 2, 2}, {5, 3, 3}, {4, 2, 4}, {8, 3, 5}} {
		g, err := Build(makeSpec(cfg.l, cfg.d, cfg.dp, int64(cfg.l*100+cfg.dp), true))
		if err != nil {
			t.Fatal(err)
		}
		for owner, hs := range g.holders {
			for m := 0; m < len(hs[0]); m++ {
				used := map[int]bool{}
				for k := 0; k < g.DPrime; k++ {
					p := hs[k][m]
					if used[p] {
						t.Fatalf("owner %d: two slices share stage-%d node", owner, m)
					}
					used[p] = true
				}
			}
		}
	}
}

func TestSetupPacketShape(t *testing.T) {
	g, err := Build(makeSpec(6, 3, 4, 11, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Setup) != 4*4 {
		t.Fatalf("setup sends=%d want 16", len(g.Setup))
	}
	for _, s := range g.Setup {
		if len(s.Pkt.Slots) != 6 {
			t.Fatalf("source packet has %d slots, want L=6", len(s.Pkt.Slots))
		}
		if s.Pkt.Flow != g.Flows[s.To] {
			t.Fatal("packet flow != target flow")
		}
		for _, slot := range s.Pkt.Slots {
			if len(slot) != g.SlotLen {
				t.Fatalf("slot len %d != %d", len(slot), g.SlotLen)
			}
		}
	}
}

// simulate pushes the setup packets through the graph using only each
// relay's decoded PerNodeInfo — exactly what the relay daemon will do — and
// returns the info each relay recovered.
func simulate(t *testing.T, g *Graph, drop map[wire.NodeID]bool) map[wire.NodeID]*wire.PerNodeInfo {
	t.Helper()
	type edge struct{ from, to wire.NodeID }
	inbox := map[edge]*wire.Packet{}
	for _, s := range g.Setup {
		inbox[edge{s.From, s.To}] = s.Pkt
	}
	decoded := map[wire.NodeID]*wire.PerNodeInfo{}
	rng := rand.New(rand.NewSource(999))
	for l := 1; l <= g.L; l++ {
		for _, u := range g.Stages[l-1] {
			if drop[u] {
				continue
			}
			// Gather this node's packets.
			incoming := map[wire.NodeID]*wire.Packet{}
			for e, p := range inbox {
				if e.to == u {
					incoming[e.from] = p
				}
			}
			// Decode own info from slot 0 of each packet.
			var slices []code.Slice
			for _, p := range incoming {
				if s, err := wire.DecodeSlot(p.Slots[0], g.D); err == nil {
					slices = append(slices, s)
				}
			}
			if !code.Decodable(g.D, slices) {
				continue // victim of upstream failures
			}
			blob, err := code.Decode(g.D, slices)
			if err != nil {
				t.Fatalf("node %d: %v", u, err)
			}
			pi, err := wire.UnmarshalPerNodeInfo(blob)
			if err != nil {
				t.Fatalf("node %d: %v", u, err)
			}
			decoded[u] = pi
			// Forward per slice-map.
			if len(pi.Children) == 0 {
				continue
			}
			out := make([]*wire.Packet, len(pi.Children))
			for c, ch := range pi.Children {
				slots := make([][]byte, g.L)
				for i := range slots {
					slots[i] = wire.RandomSlot(g.SlotLen, rng)
				}
				out[c] = &wire.Packet{
					Type: wire.MsgSetup, Flow: pi.ChildFlows[c],
					CoeffLen: uint8(g.D), SlotLen: uint16(g.SlotLen), Slots: slots,
				}
				_ = ch
			}
			for _, e := range pi.SliceMap {
				src, ok := incoming[e.Src.Parent]
				if !ok {
					continue // parent packet lost; slot stays random
				}
				blob := append([]byte(nil), src.Slots[e.Src.Slot]...)
				e.Unscramble.Invert(blob)
				out[e.Child].Slots[e.DstSlot] = blob
			}
			for c, ch := range pi.Children {
				inbox[edge{u, ch}] = out[c]
			}
		}
	}
	return decoded
}

func TestFullGraphPropagation(t *testing.T) {
	for _, cfg := range []struct {
		l, d, dp int
		scramble bool
	}{
		{1, 2, 2, false}, {2, 2, 2, true}, {3, 2, 2, true},
		{5, 3, 3, true}, {4, 2, 4, true}, {8, 3, 5, true}, {3, 1, 1, false},
	} {
		g, err := Build(makeSpec(cfg.l, cfg.d, cfg.dp, 77, cfg.scramble))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		decoded := simulate(t, g, nil)
		if len(decoded) != cfg.l*cfg.dp {
			t.Fatalf("%+v: only %d/%d nodes decoded", cfg, len(decoded), cfg.l*cfg.dp)
		}
		for id, pi := range decoded {
			want := g.Infos[id]
			if !bytes.Equal(pi.Marshal(), want.Marshal()) {
				t.Fatalf("%+v: node %d decoded wrong info", cfg, id)
			}
		}
		// Exactly one receiver, and it is the destination.
		recv := 0
		for id, pi := range decoded {
			if pi.Receiver {
				recv++
				if id != g.Dest {
					t.Fatalf("%+v: wrong receiver %d", cfg, id)
				}
				if pi.Key != g.DestKey {
					t.Fatalf("%+v: receiver key mismatch", cfg)
				}
			}
		}
		if recv != 1 {
			t.Fatalf("%+v: %d receivers", cfg, recv)
		}
	}
}

// With redundancy d' > d, dropping up to d'-d nodes per stage still lets
// every surviving downstream node decode its info.
func TestSetupSurvivesFailuresWithRedundancy(t *testing.T) {
	g, err := Build(makeSpec(4, 2, 4, 13, true))
	if err != nil {
		t.Fatal(err)
	}
	// Drop two nodes (= d'-d) in stage 2, avoiding the destination.
	drop := map[wire.NodeID]bool{}
	count := 0
	for _, id := range g.Stages[1] {
		if id != g.Dest && count < 2 {
			drop[id] = true
			count++
		}
	}
	decoded := simulate(t, g, drop)
	for l := 1; l <= g.L; l++ {
		for _, id := range g.Stages[l-1] {
			if drop[id] {
				continue
			}
			if decoded[id] == nil {
				t.Fatalf("node %d (stage %d) failed to decode despite redundancy", id, l)
			}
		}
	}
}

// Without redundancy, dropping any relay with children kills its subtree
// slices — but the builder should still deliver everything when no failures
// occur (sanity inverse of the above).
func TestNoRedundancyIsFragile(t *testing.T) {
	g, err := Build(makeSpec(4, 3, 3, 17, false))
	if err != nil {
		t.Fatal(err)
	}
	drop := map[wire.NodeID]bool{g.Stages[0][0]: true}
	decoded := simulate(t, g, drop)
	// Some downstream node must have failed to decode: stage-1 node held
	// slices for every downstream owner.
	if len(decoded) == 4*3-1 {
		t.Fatal("dropping a stage-1 node with d'=d should lose someone's info")
	}
}

// Scrambling: a slice's bytes must differ on every link it traverses.
func TestScramblingHidesPatternsAcrossLinks(t *testing.T) {
	g, err := Build(makeSpec(5, 2, 2, 19, true))
	if err != nil {
		t.Fatal(err)
	}
	// Track a stage-5 owner's slice 0 through the graph by replaying the
	// chain: views after each strip must be pairwise distinct.
	owner := g.Stages[4][0]
	chain := g.chains[chainKey{owner, 0}]
	if len(chain) != 4 {
		t.Fatalf("chain length %d want 4", len(chain))
	}
	for i, tr := range chain {
		if tr.IsIdentity() {
			t.Fatalf("layer %d is identity with scrambling on", i)
		}
	}
	// Without scrambling all layers are identity.
	g2, err := Build(makeSpec(5, 2, 2, 19, false))
	if err != nil {
		t.Fatal(err)
	}
	owner2 := g2.Stages[4][0]
	for _, tr := range g2.chains[chainKey{owner2, 0}] {
		if !tr.IsIdentity() {
			t.Fatal("scrambling disabled but non-identity layer present")
		}
	}
}

// The data-map invariant: following DataMap entries from the source
// multicast, every node in every stage receives d' distinct slice indices.
func TestDataMapDeliversDistinctSlices(t *testing.T) {
	for _, cfg := range []struct{ l, dp int }{{2, 2}, {3, 3}, {5, 4}, {4, 5}} {
		g, err := Build(makeSpec(cfg.l, 2, cfg.dp, int64(cfg.l+cfg.dp), false))
		if err != nil {
			t.Fatal(err)
		}
		dp := cfg.dp
		// held[node][parent] = slice index received from that parent.
		held := map[wire.NodeID]map[wire.NodeID]int{}
		// Source endpoints multicast slice e to every stage-1 node.
		for _, v := range g.Stages[0] {
			held[v] = map[wire.NodeID]int{}
			for e, src := range g.Sources {
				held[v][src] = e
			}
		}
		for l := 1; l <= g.L; l++ {
			for _, u := range g.Stages[l-1] {
				pi := g.Infos[u]
				// Check distinctness of what u holds.
				seen := map[int]bool{}
				for _, idx := range held[u] {
					if seen[idx] {
						t.Fatalf("l=%d dp=%d: node %d holds duplicate slice %d", cfg.l, dp, u, idx)
					}
					seen[idx] = true
				}
				if len(seen) != dp {
					t.Fatalf("node %d holds %d distinct slices, want %d", u, len(seen), dp)
				}
				// Forward per data-map; a last-stage entry only names a parent.
				for _, df := range pi.DataMap {
					idx, ok := held[u][df.Parent]
					if !ok {
						t.Fatalf("node %d: data-map references unknown parent %d", u, df.Parent)
					}
					if df.Child == wire.NoChild && l == g.L {
						continue
					}
					child := pi.Children[df.Child]
					if held[child] == nil {
						held[child] = map[wire.NodeID]int{}
					}
					held[child][u] = idx
				}
			}
		}
	}
}

// Slot occupancy: every relay's forwarded slots stay within [0, L) and no
// two slice-map entries collide on (child, slot).
func TestSliceMapSlotBounds(t *testing.T) {
	g, err := Build(makeSpec(7, 3, 4, 23, true))
	if err != nil {
		t.Fatal(err)
	}
	for id, pi := range g.Infos {
		used := map[[2]uint8]bool{}
		for _, e := range pi.SliceMap {
			if int(e.DstSlot) >= g.L || int(e.Src.Slot) >= g.L {
				t.Fatalf("node %d: slot out of range: %+v", id, e)
			}
			key := [2]uint8{e.Child, e.DstSlot}
			if used[key] {
				t.Fatalf("node %d: slot collision %+v", id, e)
			}
			used[key] = true
			if int(e.Child) >= len(pi.Children) {
				t.Fatalf("node %d: child index out of range", id)
			}
		}
	}
}

// Flow-ids must change per hop: a node's flow differs from all its
// children's flows (w.h.p. with 64-bit ids; equality would break unlinking).
func TestFlowIDsChangePerHop(t *testing.T) {
	g, err := Build(makeSpec(5, 2, 3, 29, false))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[wire.FlowID]int{}
	for _, f := range g.Flows {
		ids[f]++
	}
	for f, n := range ids {
		if n > 1 {
			t.Fatalf("flow id %d reused %d times", f, n)
		}
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	for _, cfg := range []struct{ l, d, dp int }{{5, 2, 2}, {8, 3, 3}, {5, 3, 6}} {
		name := benchLabel(cfg.l, cfg.d, cfg.dp)
		b.Run(name, func(b *testing.B) {
			s := makeSpec(cfg.l, cfg.d, cfg.dp, 1, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Rng = rand.New(rand.NewSource(int64(i)))
				if _, err := Build(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchLabel(l, d, dp int) string {
	return "L" + itoa(l) + "_d" + itoa(d) + "_dp" + itoa(dp)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
