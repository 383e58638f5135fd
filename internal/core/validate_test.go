package core

import (
	"math/rand"
	"testing"
)

func TestValidateFreshGraphs(t *testing.T) {
	// Every spec the builder accepts must validate, across a wide random
	// parameter sweep (spec-level fuzzing).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		l := 1 + rng.Intn(8)
		d := 1 + rng.Intn(4)
		dp := d + rng.Intn(4)
		g, err := Build(makeSpec(l, d, dp, int64(trial), trial%2 == 0))
		if err != nil {
			t.Fatalf("trial %d (L=%d d=%d d'=%d): %v", trial, l, d, dp, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d (L=%d d=%d d'=%d): %v", trial, l, d, dp, err)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func() *Graph {
		g, err := Build(makeSpec(4, 2, 3, 7, true))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name   string
		mutate func(*Graph)
	}{
		{"duplicate node", func(g *Graph) { g.Stages[0][0] = g.Stages[1][0] }},
		{"flow reuse", func(g *Graph) {
			g.Flows[g.Stages[0][0]] = g.Flows[g.Stages[0][1]]
		}},
		{"dest position", func(g *Graph) { g.DestPos = (g.DestPos + 1) % g.DPrime }},
		{"holder clash", func(g *Graph) {
			hs := g.holders[g.Stages[3][0]]
			hs[1][1] = hs[0][1]
		}},
		{"slice map slot", func(g *Graph) {
			pi := g.Infos[g.Stages[0][0]]
			pi.SliceMap[0].DstSlot = 200
		}},
		{"slice map collision", func(g *Graph) {
			pi := g.Infos[g.Stages[0][0]]
			pi.SliceMap[1] = pi.SliceMap[0]
		}},
		{"data map parent", func(g *Graph) {
			pi := g.Infos[g.Stages[0][0]]
			pi.DataMap[0].Parent = 424242
		}},
		{"leaf names no parent", func(g *Graph) { g.Infos[g.Stages[3][0]].DataMap = nil }},
		{"extra receiver", func(g *Graph) {
			for id, pi := range g.Infos {
				if id != g.Dest {
					pi.Receiver = true
					return
				}
			}
		}},
		{"no receiver", func(g *Graph) { g.Infos[g.Dest].Receiver = false }},
	}
	for _, c := range cases {
		g := fresh()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: fresh graph invalid: %v", c.name, err)
		}
		c.mutate(g)
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: corruption not detected", c.name)
		}
	}
}

// TestValidateLeafParentTwoStagesUp: a last-stage block that names a parent
// two stages up — an address its position never shows it — fails Validate,
// in the exposure check as in the data-map replay.
func TestValidateLeafParentTwoStagesUp(t *testing.T) {
	g, err := Build(makeSpec(3, 2, 3, 31, true))
	if err != nil {
		t.Fatal(err)
	}
	leaf := g.Stages[g.L-1][0]
	pi := g.Infos[leaf].Clone()
	pi.DataMap[0].Parent = g.Stages[g.L-3][0]
	g.Infos[leaf] = pi
	if err := g.Validate(); err == nil {
		t.Fatal("a leaf naming a parent two stages up validates")
	}
	if err := g.validateExposure(); err == nil {
		t.Fatal("exposure check passes a leaf naming a parent two stages up")
	}
}
