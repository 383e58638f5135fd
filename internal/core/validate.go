package core

import (
	"errors"
	"fmt"

	"infoslicing/internal/wire"
)

// ErrInvariant reports a violated graph invariant.
var ErrInvariant = errors.New("core: graph invariant violated")

// Validate re-checks every structural invariant of a built graph. Build
// cannot produce an invalid graph; Validate exists so users embedding the
// builder (and fuzzers) can assert the properties the anonymity and
// resilience arguments rest on:
//
//  1. Stages partition the relays into L groups of d', the destination is
//     on the graph, and flow-ids are unique.
//  2. For every owner, the d' slice paths are vertex-disjoint and respect
//     stage order (holder at stage m sits in stage m).
//  3. Every slice-map entry stays within packet geometry, no two entries
//     collide on a (child, slot) cell, and slot 0 of every packet carries
//     the receiving child's own slice.
//  4. Data-maps deliver d' distinct coded slices to every node when the
//     source multicasts d' slices to stage 1, and each names all d' of
//     its node's parents; an entry that feeds no child (NoChild) is
//     allowed only in a block that has none.
//  5. Exactly one relay carries the receiver flag, and it is the
//     destination.
//  6. Exposure: every address a node's info references lies in an adjacent
//     stage — a node sees only its own in/out edges (§4). This is the
//     invariant a live repair (Splice) must also preserve.
func (g *Graph) Validate() error {
	if err := g.validateStages(); err != nil {
		return err
	}
	if err := g.validateDisjointPaths(); err != nil {
		return err
	}
	if err := g.validateSliceMaps(); err != nil {
		return err
	}
	if err := g.validateDataMaps(); err != nil {
		return err
	}
	if err := g.validateExposure(); err != nil {
		return err
	}
	return g.validateReceiver()
}

// validateExposure checks that no info block names a node outside the
// owner's adjacent stages: children one stage down, data-/slice-map parents
// one stage up (source endpoints count as stage 0). Any other address in an
// info block would hand a relay knowledge the threat model (§3a) says it
// must not have.
func (g *Graph) validateExposure() error {
	isSource := make(map[wire.NodeID]bool, len(g.Sources))
	for _, s := range g.Sources {
		isSource[s] = true
	}
	parentOK := func(l int, id wire.NodeID) bool {
		if l == 1 {
			return isSource[id]
		}
		return g.StageOf(id) == l-1
	}
	for l := 1; l <= g.L; l++ {
		for _, x := range g.Stages[l-1] {
			pi := g.Infos[x]
			for _, c := range pi.Children {
				if g.StageOf(c) != l+1 {
					return fmt.Errorf("%w: node %d (stage %d) names non-adjacent child %d",
						ErrInvariant, x, l, c)
				}
			}
			for _, e := range pi.DataMap {
				if !parentOK(l, e.Parent) {
					return fmt.Errorf("%w: node %d (stage %d) names non-adjacent data parent %d",
						ErrInvariant, x, l, e.Parent)
				}
			}
			for _, e := range pi.SliceMap {
				if !parentOK(l, e.Src.Parent) {
					return fmt.Errorf("%w: node %d (stage %d) names non-adjacent slice parent %d",
						ErrInvariant, x, l, e.Src.Parent)
				}
			}
		}
	}
	return nil
}

func (g *Graph) validateStages() error {
	if len(g.Stages) != g.L {
		return fmt.Errorf("%w: %d stages, want %d", ErrInvariant, len(g.Stages), g.L)
	}
	seen := make(map[wire.NodeID]bool)
	flows := make(map[wire.FlowID]bool)
	for l, st := range g.Stages {
		if len(st) != g.DPrime {
			return fmt.Errorf("%w: stage %d has %d nodes", ErrInvariant, l+1, len(st))
		}
		for _, id := range st {
			if seen[id] {
				return fmt.Errorf("%w: node %d appears twice", ErrInvariant, id)
			}
			seen[id] = true
			f, ok := g.Flows[id]
			if !ok {
				return fmt.Errorf("%w: node %d has no flow", ErrInvariant, id)
			}
			if flows[f] {
				return fmt.Errorf("%w: flow %d reused", ErrInvariant, f)
			}
			flows[f] = true
		}
	}
	if !seen[g.Dest] {
		return fmt.Errorf("%w: destination off graph", ErrInvariant)
	}
	if g.Stages[g.DestStage-1][g.DestPos] != g.Dest {
		return fmt.Errorf("%w: destination position wrong", ErrInvariant)
	}
	return nil
}

func (g *Graph) validateDisjointPaths() error {
	for owner, hs := range g.holders {
		stageCount := len(hs[0])
		for m := 0; m < stageCount; m++ {
			used := make(map[int]bool, g.DPrime)
			for k := 0; k < g.DPrime; k++ {
				if len(hs[k]) != stageCount {
					return fmt.Errorf("%w: owner %d ragged paths", ErrInvariant, owner)
				}
				p := hs[k][m]
				if p < 0 || p >= g.DPrime {
					return fmt.Errorf("%w: owner %d holder out of range", ErrInvariant, owner)
				}
				if used[p] {
					return fmt.Errorf("%w: owner %d slices share a stage-%d node", ErrInvariant, owner, m)
				}
				used[p] = true
			}
		}
	}
	return nil
}

func (g *Graph) validateSliceMaps() error {
	for id, pi := range g.Infos {
		used := make(map[[2]uint8]bool)
		for _, e := range pi.SliceMap {
			if int(e.Child) >= len(pi.Children) {
				return fmt.Errorf("%w: node %d child index %d", ErrInvariant, id, e.Child)
			}
			if int(e.DstSlot) >= g.L || int(e.Src.Slot) >= g.L {
				return fmt.Errorf("%w: node %d slot out of range", ErrInvariant, id)
			}
			key := [2]uint8{e.Child, e.DstSlot}
			if used[key] {
				return fmt.Errorf("%w: node %d slot collision %v", ErrInvariant, id, key)
			}
			used[key] = true
		}
		// Slot 0 of every child's packet must be filled by someone: each
		// stage's nodes receive their own slices via their parents' maps.
		// Checked globally below via slot0 coverage.
	}
	// Global slot-0 coverage: for every node x at stage >= 2, its d' own
	// slices must each appear as a DstSlot-0 entry at its stage-(m-1)
	// holders. (Stage-1 nodes get slot 0 directly from the source.)
	covered := make(map[wire.NodeID]int)
	for id, pi := range g.Infos {
		for _, e := range pi.SliceMap {
			if e.DstSlot == 0 {
				covered[pi.Children[e.Child]]++
			}
		}
		_ = id
	}
	for l := 2; l <= g.L; l++ {
		for _, x := range g.Stages[l-1] {
			if covered[x] != g.DPrime {
				return fmt.Errorf("%w: node %d has %d slot-0 deliveries, want %d",
					ErrInvariant, x, covered[x], g.DPrime)
			}
		}
	}
	return nil
}

func (g *Graph) validateDataMaps() error {
	// Replay the data plane symbolically: source endpoints multicast slice
	// e to every stage-1 node; each node must end every round holding d'
	// distinct slice indices.
	held := make(map[wire.NodeID]map[wire.NodeID]int)
	for _, v := range g.Stages[0] {
		held[v] = make(map[wire.NodeID]int, g.DPrime)
		for e, src := range g.Sources {
			held[v][src] = e
		}
	}
	for l := 1; l <= g.L; l++ {
		for _, u := range g.Stages[l-1] {
			distinct := make(map[int]bool)
			for _, idx := range held[u] {
				if distinct[idx] {
					return fmt.Errorf("%w: node %d receives duplicate data slice", ErrInvariant, u)
				}
				distinct[idx] = true
			}
			if len(distinct) != g.DPrime {
				return fmt.Errorf("%w: node %d receives %d distinct slices, want %d",
					ErrInvariant, u, len(distinct), g.DPrime)
			}
			pi := g.Infos[u]
			named := make(map[wire.NodeID]bool, g.DPrime)
			for _, df := range pi.DataMap {
				idx, ok := held[u][df.Parent]
				if !ok {
					return fmt.Errorf("%w: node %d data-map references unknown parent %d",
						ErrInvariant, u, df.Parent)
				}
				named[df.Parent] = true
				if df.Child == wire.NoChild && len(pi.Children) == 0 {
					continue // a last-stage entry: it names the parent, nothing more
				}
				if int(df.Child) >= len(pi.Children) {
					return fmt.Errorf("%w: node %d data-map child out of range", ErrInvariant, u)
				}
				child := pi.Children[df.Child]
				if held[child] == nil {
					held[child] = make(map[wire.NodeID]int, g.DPrime)
				}
				held[child][u] = idx
			}
			if len(named) != len(held[u]) {
				return fmt.Errorf("%w: node %d data-map names %d of its %d parents",
					ErrInvariant, u, len(named), len(held[u]))
			}
		}
	}
	return nil
}

func (g *Graph) validateReceiver() error {
	receivers := 0
	for id, pi := range g.Infos {
		if pi.Receiver {
			receivers++
			if id != g.Dest {
				return fmt.Errorf("%w: receiver flag on non-destination %d", ErrInvariant, id)
			}
			if pi.Key != g.DestKey {
				return fmt.Errorf("%w: destination key mismatch", ErrInvariant)
			}
		}
	}
	if receivers != 1 {
		return fmt.Errorf("%w: %d receiver flags", ErrInvariant, receivers)
	}
	return nil
}
