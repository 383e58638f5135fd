package anonymity

import (
	"math"
	"math/rand"
	"testing"
)

func run(t *testing.T, p Params) Result {
	t.Helper()
	if p.Rng == nil {
		p.Rng = rand.New(rand.NewSource(42))
	}
	if p.Trials == 0 {
		p.Trials = 400
	}
	r, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{N: 0, L: 8, D: 3, F: 0.1, Trials: 1},
		{N: 100, L: 0, D: 3, F: 0.1, Trials: 1},
		{N: 100, L: 8, D: 0, F: 0.1, Trials: 1},
		{N: 100, L: 8, D: 3, F: -0.1, Trials: 1},
		{N: 100, L: 8, D: 3, F: 1.1, Trials: 1},
		{N: 100, L: 8, D: 3, F: 0.1, Trials: 0},
		{N: 10, L: 8, D: 3, F: 0.1, Trials: 1},             // graph larger than N
		{N: 100, L: 2, D: 3, DPrime: 2, F: 0.1, Trials: 1}, // d' < d
	}
	for i, p := range bad {
		if _, err := Simulate(p); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
}

func TestNoAttackersPerfectAnonymity(t *testing.T) {
	r := run(t, Params{N: 10000, L: 8, D: 3, F: 0})
	if r.Source != 1 || r.Destination != 1 {
		t.Fatalf("f=0: src=%v dst=%v", r.Source, r.Destination)
	}
	if r.SourceCase1 != 0 || r.DestCase1 != 0 {
		t.Fatal("f=0 should never fully expose")
	}
}

func TestAllAttackersZeroAnonymity(t *testing.T) {
	r := run(t, Params{N: 10000, L: 8, D: 3, F: 1})
	// The destination is forced honest, so in the 1/L of trials where it
	// lands in stage 1 that stage is not fully compromised and Eq. 8 yields
	// a sliver of entropy; everywhere else the source is fully exposed.
	if r.Source > 0.05 {
		t.Fatalf("f=1 source anonymity %v", r.Source)
	}
	// The destination is forced honest, but every upstream stage is fully
	// malicious whenever destStage > 1, so destination anonymity collapses.
	if r.Destination > 0.2 {
		t.Fatalf("f=1 destination anonymity %v", r.Destination)
	}
}

func TestAnonymityBounds(t *testing.T) {
	for _, f := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.9} {
		r := run(t, Params{N: 10000, L: 8, D: 3, F: f})
		for _, v := range []float64{r.Source, r.Destination} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("f=%v out of bounds: %+v", f, r)
			}
		}
	}
}

// TestCase1Exposure checks the full-exposure rates (Result.SourceCase1 and
// DestCase1), which no figure prints; the anonymity the figures plot is
// checked by eval's TestFigures. In each case got lies strictly between lo
// and hi.
func TestCase1Exposure(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T) (lo, got, hi float64)
	}{
		// Any fully compromised upstream stage exposes the destination,
		// while only stage 1 exposes the source (Fig. 7).
		{"dest_exposed_more_than_source", func(t *testing.T) (float64, float64, float64) {
			r := run(t, Params{N: 10000, L: 8, D: 3, F: 0.4, Trials: 1500})
			return r.SourceCase1, r.DestCase1, math.Inf(1)
		}},
		// Wider stages are harder to own at high f (Fig. 8).
		{"wider_stages_expose_dest_less", func(t *testing.T) (float64, float64, float64) {
			narrow := run(t, Params{N: 10000, L: 8, D: 2, F: 0.4, Trials: 2000})
			wide := run(t, Params{N: 10000, L: 8, D: 8, F: 0.4, Trials: 2000})
			return math.Inf(-1), wide.DestCase1, narrow.DestCase1
		}},
		// An upstream stage is compromised once d of d' > d nodes are
		// malicious (Fig. 10).
		{"redundancy_exposes_dest", func(t *testing.T) (float64, float64, float64) {
			base := run(t, Params{N: 10000, L: 8, D: 3, DPrime: 3, F: 0.1, Trials: 2000})
			red := run(t, Params{N: 10000, L: 8, D: 3, DPrime: 9, F: 0.1, Trials: 2000})
			return base.DestCase1, red.DestCase1, math.Inf(1)
		}},
		// f^d = 0.09, scaled by (L-1)/L because the destination — forced
		// honest — lands in stage 1 in 1/L of the trials and blocks full
		// compromise there (d' = d leaves no slack).
		{"source_case1_matches_analytic", func(t *testing.T) (float64, float64, float64) {
			r := run(t, Params{N: 10000, L: 8, D: 2, F: 0.3, Trials: 20000, Rng: rand.New(rand.NewSource(11))})
			want := SourceCase1Prob(2, 2, 0.3) * 7 / 8
			return want - 0.01, r.SourceCase1, want + 0.01
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if lo, got, hi := c.run(t); !(lo < got && got < hi) {
				t.Fatalf("%v, want in (%v, %v)", got, lo, hi)
			}
		})
	}
}

func TestBinomHelpers(t *testing.T) {
	if binom(5, 2) != 10 {
		t.Fatal("C(5,2)")
	}
	if binom(5, 0) != 1 || binom(5, 5) != 1 || binom(5, 6) != 0 || binom(5, -1) != 0 {
		t.Fatal("binom edge cases")
	}
	if got := binomTail(3, 0, 0.5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("tail from 0 should be 1, got %v", got)
	}
	if got := binomTail(2, 2, 0.5); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("P[X=2]=0.25, got %v", got)
	}
}

func TestAnalyticMonotonicity(t *testing.T) {
	// Case-1 probabilities grow with f and with the number of stages.
	if SourceCase1Prob(3, 3, 0.1) >= SourceCase1Prob(3, 3, 0.5) {
		t.Fatal("source case1 should grow with f")
	}
	// Eq. 9 as printed multiplies by g(d,d-1,f)^(j-i), which conditions on
	// every stage containing at least one attacker; it is therefore NOT
	// monotone in L (it vanishes for long paths). We implement it verbatim
	// and only assert monotonicity in f, which does hold.
	if DestPfail(5, 3, 0.1) >= DestPfail(5, 3, 0.4) {
		t.Fatal("dest Pfail should grow with f")
	}
	// Redundancy makes stage compromise easier.
	if StageCompromiseProb(3, 3, 0.2) >= StageCompromiseProb(3, 9, 0.2) {
		t.Fatal("redundancy should ease stage compromise")
	}
	// Eq. 12 reduces to Eq. 9 at d' = d.
	if math.Abs(DestPfailRedundant(5, 3, 3, 0.2)-DestPfail(5, 3, 0.2)) > 1e-12 {
		t.Fatal("Eq.12 should reduce to Eq.9 at d'=d")
	}
}

func TestExposedChains(t *testing.T) {
	// Stages: 1..8, attackers at 3 and 4 and at 7.
	hasMal := []bool{false, false, false, true, true, false, false, true, false}
	chains := exposedChains(hasMal, 8)
	if len(chains) != 2 {
		t.Fatalf("chains=%d", len(chains))
	}
	if chains[0].first != 2 || chains[0].last != 5 {
		t.Fatalf("chain 0 = %+v", chains[0])
	}
	if chains[1].first != 6 || chains[1].last != 8 {
		t.Fatalf("chain 1 = %+v", chains[1])
	}
	if longestChain(chains) != chains[0] {
		t.Fatal("longest chain wrong")
	}
	// Attackers at stage 1 expose the source stage (index 0).
	hasMal2 := []bool{false, true, false}
	c2 := exposedChains(hasMal2, 2)
	if c2[0].first != 0 || c2[0].last != 2 {
		t.Fatalf("boundary chain = %+v", c2[0])
	}
}

func TestEntropyTwoClasses(t *testing.T) {
	// All mass on one node: zero entropy.
	if h := entropyTwoClasses(1, 1, 100); h != 0 {
		t.Fatalf("h=%v", h)
	}
	// Uniform over 100 nodes: log(100).
	if h := entropyTwoClasses(0.5, 50, 50); math.Abs(h-math.Log(100)) > 1e-9 {
		t.Fatalf("uniform entropy %v want %v", h, math.Log(100))
	}
}

func BenchmarkSimulateTrial(b *testing.B) {
	p := Params{N: 10000, L: 8, D: 3, F: 0.1, Trials: 1,
		Rng: rand.New(rand.NewSource(1))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(p); err != nil {
			b.Fatal(err)
		}
	}
}
