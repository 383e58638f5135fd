package core

import (
	"fmt"
	"sort"
	"strings"

	"infoslicing/internal/wire"
)

// This file provides introspection helpers for built graphs: a Graphviz DOT
// rendering of the stages and slice paths, and per-relay knowledge reports
// that make the anonymity invariant auditable ("a relay knows its previous
// and next hops and nothing more", §3a).

// DOT renders the forwarding graph in Graphviz format. Stages are drawn as
// ranked clusters, every stage-to-stage edge is shown, and the destination
// is highlighted — information only the source holds.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph infoslicing {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=circle fontsize=10];\n")
	// Source endpoints.
	b.WriteString("  subgraph cluster_src {\n    label=\"stage 0 (source + pseudo-sources)\";\n")
	for _, s := range g.Sources {
		fmt.Fprintf(&b, "    n%d [label=\"S%d\" shape=doublecircle];\n", s, s)
	}
	b.WriteString("  }\n")
	for l := 1; l <= g.L; l++ {
		fmt.Fprintf(&b, "  subgraph cluster_stage%d {\n    label=\"stage %d\";\n", l, l)
		for _, id := range g.Stages[l-1] {
			attr := ""
			if id == g.Dest {
				attr = " style=filled fillcolor=gold xlabel=\"dest\""
			}
			fmt.Fprintf(&b, "    n%d [label=\"%d\"%s];\n", id, id, attr)
		}
		b.WriteString("  }\n")
	}
	// Edges: complete bipartite between consecutive stages.
	for _, s := range g.Sources {
		for _, v := range g.Stages[0] {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", s, v)
		}
	}
	for l := 1; l < g.L; l++ {
		for _, u := range g.Stages[l-1] {
			for _, v := range g.Stages[l] {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", u, v)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// SlicePathsDOT renders only the vertex-disjoint paths of one owner's
// slices, useful to visualize the disjointness invariant.
func (g *Graph) SlicePathsDOT(owner wire.NodeID) (string, error) {
	hs, ok := g.holders[owner]
	if !ok {
		return "", fmt.Errorf("core: node %d not on graph", owner)
	}
	var b strings.Builder
	b.WriteString("digraph slicepaths {\n  rankdir=LR;\n")
	fmt.Fprintf(&b, "  label=\"slice paths of node %d (stage %d)\";\n",
		owner, g.StageOf(owner))
	colors := []string{"red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta"}
	for k, path := range hs {
		color := colors[k%len(colors)]
		prev := fmt.Sprintf("n%d", g.Sources[path[0]])
		for m := 1; m < len(path); m++ {
			cur := fmt.Sprintf("n%d", g.nodeAt(m, path[m]))
			fmt.Fprintf(&b, "  %s -> %s [color=%s label=\"s%d\"];\n", prev, cur, color, k)
			prev = cur
		}
		fmt.Fprintf(&b, "  %s -> n%d [color=%s label=\"s%d\"];\n", prev, owner, color, k)
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// Knowledge describes everything a relay learns from participating in a
// flow. Fields are limited by construction to the §3a threat model.
type Knowledge struct {
	Node      wire.NodeID
	Parents   []wire.NodeID // previous hops (named by the Ix maps)
	Children  []wire.NodeID // next hops (from the decoded Ix)
	IsDest    bool          // receiver flag (meaningful only at the dest)
	KnowsRole bool          // true only for the destination

	// Explicitly NOT known; enumerated so tests and docs can assert it.
	UnknownStage  bool // relays never learn their stage index
	UnknownSource bool // nor the source identity
	UnknownDest   bool // nor the destination (unless they are it)
}

// KnowledgeOf derives a relay's knowledge from its per-node info — the same
// block the relay itself decodes, so this is what the node actually sees.
func (g *Graph) KnowledgeOf(id wire.NodeID) (Knowledge, error) {
	pi, ok := g.Infos[id]
	if !ok {
		return Knowledge{}, fmt.Errorf("core: node %d not on graph", id)
	}
	k := Knowledge{
		Node:          id,
		Children:      append([]wire.NodeID(nil), pi.Children...),
		IsDest:        pi.Receiver,
		KnowsRole:     pi.Receiver,
		UnknownStage:  true,
		UnknownSource: true,
		UnknownDest:   !pi.Receiver,
	}
	seen := map[wire.NodeID]bool{}
	for _, e := range pi.DataMap {
		seen[e.Parent] = true
	}
	for _, e := range pi.SliceMap {
		seen[e.Src.Parent] = true
	}
	for p := range seen {
		k.Parents = append(k.Parents, p)
	}
	sort.Slice(k.Parents, func(i, j int) bool { return k.Parents[i] < k.Parents[j] })
	return k, nil
}

// String renders a human-readable knowledge report.
func (k Knowledge) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "relay %d knows:\n", k.Node)
	fmt.Fprintf(&b, "  previous hops: %v\n", k.Parents)
	fmt.Fprintf(&b, "  next hops:     %v\n", k.Children)
	if k.IsDest {
		b.WriteString("  role:          DESTINATION (receiver flag set)\n")
	} else {
		b.WriteString("  role:          relay (no receiver flag)\n")
	}
	b.WriteString("  does NOT know: its stage, the source, ")
	if k.IsDest {
		b.WriteString("the rest of the graph\n")
	} else {
		b.WriteString("the destination, the rest of the graph\n")
	}
	return b.String()
}
