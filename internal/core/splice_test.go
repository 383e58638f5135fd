package core

import (
	"math/rand"
	"testing"

	"infoslicing/internal/wire"
)

func buildTestGraph(t *testing.T, l, d, dp int, seed int64) *Graph {
	t.Helper()
	relays := make([]wire.NodeID, l*dp)
	for i := range relays {
		relays[i] = wire.NodeID(i + 1)
	}
	srcs := make([]wire.NodeID, dp)
	for i := range srcs {
		srcs[i] = wire.NodeID(900 + i)
	}
	g, err := Build(Spec{
		L: l, D: d, DPrime: dp,
		Relays: relays, Dest: relays[0], Sources: srcs,
		Recode: true, Scramble: true,
		Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pickVictim returns a relay that is not the destination, preferring a
// mid-graph stage so both parent and child patches are exercised.
func pickVictim(g *Graph) (stage int, id wire.NodeID) {
	for l := g.L; l >= 1; l-- {
		for _, x := range g.Stages[l-1] {
			if x != g.Dest {
				return l, x
			}
		}
	}
	panic("no victim")
}

func TestSpliceMidGraph(t *testing.T) {
	g := buildTestGraph(t, 4, 2, 3, 11)
	// A stage strictly inside the graph: parents and children both exist.
	stage := 2
	if g.DestStage == 2 {
		stage = 3
	}
	var victim wire.NodeID
	for _, x := range g.Stages[stage-1] {
		if x != g.Dest {
			victim = x
			break
		}
	}
	const repl = wire.NodeID(7777)
	oldFlow := g.Flows[victim]
	plan, err := g.Splice(stage, victim, repl)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stage != stage || plan.Old != victim || plan.New != repl {
		t.Fatalf("plan identity wrong: %+v", plan)
	}
	if !plan.NewInfo.Spliced {
		t.Fatal("replacement info must carry the Spliced flag")
	}
	if plan.NewFlow == oldFlow {
		t.Fatal("splice reused the dead node's flow-id")
	}
	if plan.NewKey == g.DestKey {
		t.Fatal("key collision with destination")
	}
	// Graph mutated to post-repair truth.
	if g.StageOf(victim) != 0 || g.StageOf(repl) != stage {
		t.Fatal("stages not updated")
	}
	if _, ok := g.Flows[victim]; ok {
		t.Fatal("dead node still has a flow")
	}
	if _, ok := g.Keys[victim]; ok {
		t.Fatal("dead node still has a key")
	}
	// Patch set = exactly the dead node's neighbors (full bipartite
	// stages: d' parents + d' children), nothing else — the minimal
	// sub-graph.
	want := 2 * g.DPrime
	if len(plan.Patches) != want {
		t.Fatalf("%d patches, want %d", len(plan.Patches), want)
	}
	for _, p := range plan.Patches {
		ls := g.StageOf(p.Node)
		if ls != stage-1 && ls != stage+1 {
			t.Fatalf("patch for node %d at stage %d: not a neighbor of stage %d", p.Node, ls, stage)
		}
		if p.Key != g.Keys[p.Node] {
			t.Fatal("patch must be sealed under the node's existing key")
		}
		if ls == stage-1 {
			found := false
			for c, ch := range p.Info.Children {
				if ch == repl {
					found = true
					if p.Info.ChildFlows[c] != plan.NewFlow {
						t.Fatal("parent patch has stale child flow")
					}
				}
				if ch == victim {
					t.Fatal("parent patch still names the dead child")
				}
			}
			if !found {
				t.Fatal("parent patch does not adopt the replacement")
			}
		} else {
			for _, e := range p.Info.DataMap {
				if e.Parent == victim {
					t.Fatal("child patch still pulls data from the dead parent")
				}
			}
			for _, e := range p.Info.SliceMap {
				if e.Src.Parent == victim {
					t.Fatal("child patch slice-map still names the dead parent")
				}
			}
		}
	}
	// All invariants re-validated on the mutated graph (Splice already did;
	// double-check from the outside).
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpliceStage1AndLastStage(t *testing.T) {
	g := buildTestGraph(t, 3, 2, 2, 13)
	// First stage: no parent patches — the source re-reads Stages[0].
	var v1 wire.NodeID
	for _, x := range g.Stages[0] {
		if x != g.Dest {
			v1 = x
		}
	}
	plan, err := g.Splice(1, v1, 8001)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Patches) != g.DPrime {
		t.Fatalf("stage-1 splice: %d patches, want %d (children only)", len(plan.Patches), g.DPrime)
	}
	// Last stage: no child patches.
	var vL wire.NodeID
	for _, x := range g.Stages[g.L-1] {
		if x != g.Dest {
			vL = x
		}
	}
	plan, err = g.Splice(g.L, vL, 8002)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Patches) != g.DPrime {
		t.Fatalf("last-stage splice: %d patches, want %d (parents only)", len(plan.Patches), g.DPrime)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceSwapsLeafParent: a last-stage block names its parents, so
// splicing a stage-(L-1) relay patches every leaf, and each patch names the
// replacement where the dead relay stood and nothing else new.
func TestSpliceSwapsLeafParent(t *testing.T) {
	g := buildTestGraph(t, 3, 2, 3, 29)
	var victim wire.NodeID
	for _, x := range g.Stages[g.L-2] {
		if x != g.Dest {
			victim = x
		}
	}
	const repl = wire.NodeID(8003)
	before := map[wire.NodeID][]wire.DataForward{}
	for _, w := range g.Stages[g.L-1] {
		before[w] = g.Infos[w].DataMap
	}
	plan, err := g.Splice(g.L-1, victim, repl)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, p := range plan.Patches {
		old, ok := before[p.Node]
		if !ok {
			continue
		}
		leaves++
		if len(p.Info.DataMap) != len(old) {
			t.Fatalf("leaf %d: patch has %d data-map entries, the block had %d", p.Node, len(p.Info.DataMap), len(old))
		}
		named := 0
		for i, e := range p.Info.DataMap {
			want := old[i]
			if want.Parent == victim {
				want.Parent = repl
			}
			if e != want {
				t.Fatalf("leaf %d entry %d: patch has %+v, want %+v", p.Node, i, e, want)
			}
			if e.Parent == repl {
				named++
			}
		}
		if named != 1 {
			t.Fatalf("leaf %d: patch names the replacement %d times, want once", p.Node, named)
		}
	}
	if leaves != g.DPrime {
		t.Fatalf("%d leaves patched, want %d", leaves, g.DPrime)
	}
}

func TestSpliceRejections(t *testing.T) {
	g := buildTestGraph(t, 3, 2, 2, 17)
	stage, victim := pickVictim(g)
	if _, err := g.Splice(stage, g.Dest, 9000); err == nil {
		t.Fatal("spliced the destination")
	}
	if _, err := g.Splice(stage, victim, g.Stages[0][0]); err == nil {
		t.Fatal("replacement already on graph accepted")
	}
	if _, err := g.Splice(stage, victim, g.Sources[0]); err == nil {
		t.Fatal("source endpoint accepted as replacement")
	}
	if _, err := g.Splice(0, victim, 9000); err == nil {
		t.Fatal("stage 0 accepted")
	}
	if _, err := g.Splice(g.L+1, victim, 9000); err == nil {
		t.Fatal("stage L+1 accepted")
	}
	wrongStage := stage%g.L + 1
	if _, err := g.Splice(wrongStage, victim, 9000); err == nil {
		t.Fatal("wrong stage accepted")
	}
	if _, err := g.Splice(stage, victim, victim); err == nil {
		t.Fatal("self-replacement accepted")
	}
}

func TestRepeatedSplicesKeepGraphValid(t *testing.T) {
	g := buildTestGraph(t, 4, 2, 3, 19)
	next := wire.NodeID(50_000)
	for i := 0; i < 10; i++ {
		stage, victim := pickVictim(g)
		if _, err := g.Splice(stage, victim, next); err != nil {
			t.Fatalf("splice %d: %v", i, err)
		}
		next++
		if err := g.Validate(); err != nil {
			t.Fatalf("after splice %d: %v", i, err)
		}
	}
}

func TestValidateExposureCatchesLeak(t *testing.T) {
	g := buildTestGraph(t, 3, 2, 2, 23)
	// Leak a distant address into a stage-1 node's children.
	x := g.Stages[0][0]
	pi := g.Infos[x].Clone()
	pi.Children[0] = g.Stages[2][0] // two stages down: not an out-edge
	g.Infos[x] = pi
	if err := g.Validate(); err == nil {
		t.Fatal("exposure violation not caught")
	}
}
