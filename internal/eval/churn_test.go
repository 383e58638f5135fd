package eval

import (
	"math"
	"testing"
)

func TestStandardOnionSuccess(t *testing.T) {
	if got := StandardOnionSuccess(5, 0); got != 1 {
		t.Fatalf("p=0: %v", got)
	}
	if got := StandardOnionSuccess(5, 1); got != 0 {
		t.Fatalf("p=1: %v", got)
	}
	want := math.Pow(0.9, 5)
	if got := StandardOnionSuccess(5, 0.1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestOnionECReducesToStandard(t *testing.T) {
	// d = d' = 1 is a single path.
	for _, p := range []float64{0, 0.1, 0.5} {
		a := OnionECSuccess(5, 1, 1, p)
		b := StandardOnionSuccess(5, p)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("p=%v: %v vs %v", p, a, b)
		}
	}
}

func TestSlicingReducesToStandardAtD1(t *testing.T) {
	// One node per stage, no redundancy: both models are a chain of L.
	for _, p := range []float64{0, 0.1, 0.5} {
		a := SlicingSuccess(5, 1, 1, p)
		b := StandardOnionSuccess(5, p)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("p=%v: %v vs %v", p, a, b)
		}
	}
}

// Fig. 16's headline: at equal redundancy, slicing beats onion+EC, and the
// gap widens with redundancy.
func TestSlicingBeatsOnionECAtEqualRedundancy(t *testing.T) {
	const L, d = 5, 2
	for _, p := range []float64{0.1, 0.3} {
		for dp := d + 1; dp <= d*3; dp++ {
			sl := SlicingSuccess(L, d, dp, p)
			ec := OnionECSuccess(L, d, dp, p)
			if sl <= ec {
				t.Fatalf("p=%v d'=%d: slicing %v <= onionEC %v", p, dp, sl, ec)
			}
		}
	}
	// At the paper's Fig. 16(b) point (p=0.3, R=1 i.e. d'=4), the advantage
	// is dramatic: slicing comfortably above, onion+EC far below.
	if sl := SlicingSuccess(L, d, 4, 0.3); sl < 0.5 {
		t.Fatalf("slicing at R=1 p=0.3: %v", sl)
	}
	if ec := OnionECSuccess(L, d, 4, 0.3); ec > 0.5 {
		t.Fatalf("onionEC at R=1 p=0.3: %v", ec)
	}
}

func TestSuccessMonotoneInRedundancy(t *testing.T) {
	const L, d, p = 5, 2, 0.2
	prevSl, prevEC := -1.0, -1.0
	for dp := d; dp <= 8; dp++ {
		sl := SlicingSuccess(L, d, dp, p)
		ec := OnionECSuccess(L, d, dp, p)
		if sl < prevSl-1e-12 || ec < prevEC-1e-12 {
			t.Fatalf("success decreased with redundancy at d'=%d", dp)
		}
		prevSl, prevEC = sl, ec
	}
}

func TestSuccessMonotoneInFailureProb(t *testing.T) {
	const L, d, dp = 5, 2, 4
	prevSl, prevEC := 2.0, 2.0
	for _, p := range []float64{0, 0.1, 0.2, 0.4, 0.8, 1} {
		sl := SlicingSuccess(L, d, dp, p)
		ec := OnionECSuccess(L, d, dp, p)
		if sl > prevSl+1e-12 || ec > prevEC+1e-12 {
			t.Fatalf("success increased with p=%v", p)
		}
		prevSl, prevEC = sl, ec
	}
}

func TestExperimentParamValidation(t *testing.T) {
	if _, err := RunExperiment(ExperimentParams{L: 0, D: 2, DPrime: 2, Trials: 1}); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := RunExperiment(ExperimentParams{L: 2, D: 2, DPrime: 1, Trials: 1}); err == nil {
		t.Fatal("d' < d accepted")
	}
	if _, err := RunExperiment(ExperimentParams{L: 2, D: 2, DPrime: 2, Trials: 1,
		NodeFailProb: 1.5}); err == nil {
		t.Fatal("p > 1 accepted")
	}
	// A session that cannot be set up is an error, not a failed session.
	if res, err := RunExperiment(ExperimentParams{L: 1, D: 1, DPrime: 256, Trials: 1}); err == nil {
		t.Fatalf("a graph past the wire's limits scored as %+v", res)
	}
}

// No churn: all three systems complete every session.
func TestExperimentNoFailures(t *testing.T) {
	res, err := RunExperiment(ExperimentParams{
		L: 3, D: 2, DPrime: 3, NodeFailProb: 0,
		Messages: 2, MessageBytes: 128, Trials: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slicing != 1 || res.OnionEC != 1 || res.StandardOnion != 1 {
		t.Fatalf("lossless run should always succeed: %+v", res)
	}
}

// Heavy churn: slicing should dominate, standard onion should collapse.
func TestExperimentUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn experiment is slow")
	}
	res, err := RunExperiment(ExperimentParams{
		L: 3, D: 2, DPrime: 4, NodeFailProb: 0.25,
		Messages: 3, MessageBytes: 128, Trials: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slicing < res.StandardOnion {
		t.Fatalf("slicing (%v) should beat standard onion (%v)", res.Slicing, res.StandardOnion)
	}
	if res.Slicing < 0.5 {
		t.Fatalf("slicing success too low under moderate churn: %v", res.Slicing)
	}
}
