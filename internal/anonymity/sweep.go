package anonymity

// The sweeps behind Figs. 7-10 (§6) and the measured Fig. 7: each returns
// the plotted series and is a function of its seed. Every point of Figs.
// 7-10 averages trials Monte-Carlo trials on an n-node overlay, drawn from
// a generator seeded afresh per point.

import (
	"math/rand"

	"infoslicing/internal/metrics"
)

// FractionSweep is Fig. 7: source and destination anonymity (L=8, d=3)
// against the fraction f of malicious nodes, beside a Chaum-mix path of
// the same length.
func FractionSweep(n, trials int, seed int64) ([]*metrics.Series, error) {
	sl, ch := newPair("src", "dst"), newPair("src(Chaum)", "dst(Chaum)")
	for _, f := range []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		p := Params{N: n, L: 8, D: 3, F: f, Trials: trials}
		if err := sl.run(f, p, seed); err != nil {
			return nil, err
		}
		p.D = 1 // a Chaum mix or onion path: one node per stage, d = d' = 1
		if err := ch.run(f, p, seed+1); err != nil {
			return nil, err
		}
	}
	return []*metrics.Series{sl.src, sl.dst, ch.src, ch.dst}, nil
}

// SplitSweep is Fig. 8: anonymity (L=8) against the split factor d = 2..12,
// at f = 0.1 and f = 0.4.
func SplitSweep(n, trials int, seed int64) ([]*metrics.Series, error) {
	lo, hi := newPair("src(f=0.1)", "dst(f=0.1)"), newPair("src(f=0.4)", "dst(f=0.4)")
	for d := 2; d <= 12; d++ {
		if err := lo.run(float64(d), Params{N: n, L: 8, D: d, F: 0.1, Trials: trials}, seed); err != nil {
			return nil, err
		}
		if err := hi.run(float64(d), Params{N: n, L: 8, D: d, F: 0.4, Trials: trials}, seed+1); err != nil {
			return nil, err
		}
	}
	return []*metrics.Series{lo.src, lo.dst, hi.src, hi.dst}, nil
}

// LengthSweep is Fig. 9: anonymity (d=3, f=0.1) against the path length
// L = 2, 4, ..., 20.
func LengthSweep(n, trials int, seed int64) ([]*metrics.Series, error) {
	a := newPair("src", "dst")
	for l := 2; l <= 20; l += 2 {
		if err := a.run(float64(l), Params{N: n, L: l, D: 3, F: 0.1, Trials: trials}, seed); err != nil {
			return nil, err
		}
	}
	return []*metrics.Series{a.src, a.dst}, nil
}

// RedundancySweep is Fig. 10: anonymity (d=3, L=8, f=0.1) against the
// added redundancy R = (d'-d)/d for d' = 3..10.
func RedundancySweep(n, trials int, seed int64) ([]*metrics.Series, error) {
	a := newPair("src", "dst")
	for dp := 3; dp <= 10; dp++ {
		p := Params{N: n, L: 8, D: 3, DPrime: dp, F: 0.1, Trials: trials}
		if err := a.run(float64(dp-3)/3, p, seed); err != nil {
			return nil, err
		}
	}
	return []*metrics.Series{a.src, a.dst}, nil
}

// MeasuredSweep is Fig. 7 (L=8, d=3) measured on an n-node simnet overlay
// with the given per-link loss and relay churn (see SimulateMeasured): the
// attacker's source and destination anonymity, the share of trials that
// expose the source, and that share's analytic value. done, if not nil,
// sees each point's result as it finishes.
func MeasuredSweep(n, trials int, seed int64, loss, churn float64, done func(f float64, r MeasuredResult)) ([]*metrics.Series, error) {
	a := newPair("src", "dst")
	c1, ana := &metrics.Series{Name: "srcCase1"}, &metrics.Series{Name: "case1(analytic)"}
	for _, f := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7} {
		r, err := SimulateMeasured(MeasuredParams{
			Params:    Params{N: n, L: 8, D: 3, F: f, Trials: trials},
			Seed:      seed,
			Loss:      loss,
			ChurnDown: churn,
		})
		if err != nil {
			return nil, err
		}
		a.add(f, r.Result)
		c1.Add(f, r.SourceCase1)
		ana.Add(f, SourceCase1Prob(3, 3, f))
		if done != nil {
			done(f, r)
		}
	}
	return []*metrics.Series{a.src, a.dst, c1, ana}, nil
}

// pair is the source and destination series of one plotted configuration.
type pair struct{ src, dst *metrics.Series }

func newPair(src, dst string) pair {
	return pair{&metrics.Series{Name: src}, &metrics.Series{Name: dst}}
}

func (a pair) add(x float64, r Result) {
	a.src.Add(x, r.Source)
	a.dst.Add(x, r.Destination)
}

// run simulates p on a generator seeded seed and adds the result at x.
func (a pair) run(x float64, p Params, seed int64) error {
	p.Rng = rand.New(rand.NewSource(seed))
	r, err := Simulate(p)
	if err != nil {
		return err
	}
	a.add(x, r)
	return nil
}
