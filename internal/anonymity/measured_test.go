package anonymity

import (
	"math"
	"testing"
)

// With perfect links every slice is delivered, so the measured attacker
// view coincides with the Monte-Carlo membership model and the analytic
// Case-1 curves.
func TestMeasuredMatchesAnalyticPerfectLinks(t *testing.T) {
	const (
		n, l, d, dp = 10_000, 5, 2, 3
		f           = 0.2
		trials      = 600
	)
	r, err := SimulateMeasured(MeasuredParams{
		Params: Params{N: n, L: l, D: d, DPrime: dp, F: f, Trials: trials},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lost != 0 {
		t.Fatalf("perfect links lost %d slices", r.Lost)
	}
	if r.Deliveries == 0 {
		t.Fatal("no slices delivered")
	}
	wantSrc := SourceCase1Prob(d, dp, f)
	if diff := math.Abs(r.SourceCase1 - wantSrc); diff > 0.06 {
		t.Errorf("measured SourceCase1 = %.3f, analytic %.3f (|diff| %.3f > 0.06)",
			r.SourceCase1, wantSrc, diff)
	}
	// And against the Monte-Carlo simulator on the same point.
	mc, err := Simulate(Params{N: n, L: l, D: d, DPrime: dp, F: f, Trials: trials})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(r.Source - mc.Source); diff > 0.08 {
		t.Errorf("measured source anonymity %.3f vs Monte-Carlo %.3f (|diff| %.3f > 0.08)",
			r.Source, mc.Source, diff)
	}
	if diff := math.Abs(r.Destination - mc.Destination); diff > 0.08 {
		t.Errorf("measured destination anonymity %.3f vs Monte-Carlo %.3f (|diff| %.3f > 0.08)",
			r.Destination, mc.Destination, diff)
	}
}

// Churn and loss shrink the attacker's view: compromised relays that never
// receive their slice observe nothing, so measured anonymity can only rise
// above the perfect-delivery baseline.
func TestMeasuredChurnWeakensAttacker(t *testing.T) {
	base := Params{N: 5_000, L: 5, D: 2, DPrime: 3, F: 0.3, Trials: 400}
	clean, err := SimulateMeasured(MeasuredParams{Params: base, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := SimulateMeasured(MeasuredParams{Params: base, Seed: 5, ChurnDown: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if churned.SourceCase1 > clean.SourceCase1 {
		t.Errorf("churn increased source exposure: %.3f > %.3f", churned.SourceCase1, clean.SourceCase1)
	}
	if churned.Source+1e-9 < clean.Source {
		t.Errorf("churn decreased source anonymity: %.3f < %.3f", churned.Source, clean.Source)
	}
	lossy, err := SimulateMeasured(MeasuredParams{Params: base, Seed: 5, Loss: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Lost == 0 {
		t.Fatal("lossy run lost nothing")
	}
	if lossy.Source+1e-9 < clean.Source {
		t.Errorf("loss decreased source anonymity: %.3f < %.3f", lossy.Source, clean.Source)
	}
}

// The measured evaluator is deterministic from its seed (churn/loss paths
// are seeded; delivery order cannot leak into the metric).
func TestMeasuredDeterministic(t *testing.T) {
	mp := MeasuredParams{
		Params:    Params{N: 3_000, L: 4, D: 2, DPrime: 3, F: 0.25, Trials: 150},
		Seed:      9,
		ChurnDown: 0.3,
	}
	a, err := SimulateMeasured(mp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateMeasured(mp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// Heavy churn: a slice sent to a relay that is down is lost before the
// network counts it as a packet, so deliveries are counted where slices
// land. Every slice sent is received or lost.
func TestMeasuredCountsEverySlice(t *testing.T) {
	r, err := SimulateMeasured(MeasuredParams{
		Params:    Params{N: 3_000, L: 8, D: 3, F: 0.1, Trials: 20},
		Seed:      1,
		ChurnDown: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lost == 0 || r.Deliveries < 0 || r.Deliveries+r.Lost != r.Sent {
		t.Fatalf("%d slices sent, %d delivered, %d lost", r.Sent, r.Deliveries, r.Lost)
	}
}
