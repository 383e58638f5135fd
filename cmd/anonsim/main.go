// Command anonsim regenerates the anonymity figures of the paper (§6):
//
//	anonsim -fig 7    source/destination anonymity vs fraction malicious,
//	                  with the Chaum-mix comparison (N=10000, L=8, d=3)
//	anonsim -fig 8    anonymity vs split factor d at f=0.1 and f=0.4
//	anonsim -fig 9    anonymity vs path length L (d=3, f=0.1)
//	anonsim -fig 10   anonymity vs added redundancy (d=3, L=8, f=0.1)
//	anonsim -fig 0    all of the above
//
// With -measured the fig-7 sweep is re-run on a full-size simnet overlay
// (-nodes sets its size, default 100000): the attacker observes only the
// slices the virtual network actually delivers, so -loss and -churn open a
// gap above the analytic curves.
//
// Output is one fixed-width table per figure; columns are the plotted
// series. Increase -trials for smoother curves (the paper uses 1000).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"infoslicing/internal/anonymity"
	"infoslicing/internal/metrics"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (7, 8, 9, 10; 0 = all)")
	trials := flag.Int("trials", 1000, "simulation trials per point")
	n := flag.Int("N", 10000, "overlay size (Monte-Carlo figures)")
	seed := flag.Int64("seed", 1, "rng seed")
	measured := flag.Bool("measured", false, "run the measured fig-7 sweep on a simnet overlay")
	nodes := flag.Int("nodes", 100000, "simnet overlay size for -measured")
	loss := flag.Float64("loss", 0, "per-link slice loss probability for -measured")
	churn := flag.Float64("churn", 0, "per-relay down probability for -measured")
	flag.Parse()

	if *measured {
		figMeasured(*nodes, *trials, *seed, *loss, *churn)
		return
	}
	switch *fig {
	case 7:
		fig7(*n, *trials, *seed)
	case 8:
		fig8(*n, *trials, *seed)
	case 9:
		fig9(*n, *trials, *seed)
	case 10:
		fig10(*n, *trials, *seed)
	case 0:
		fig7(*n, *trials, *seed)
		fig8(*n, *trials, *seed)
		fig9(*n, *trials, *seed)
		fig10(*n, *trials, *seed)
	default:
		log.Fatalf("anonsim: unknown figure %d", *fig)
	}
}

// figMeasured is the fig-7 sweep hosted on a real simnet overlay of the
// given size: every trial's slice exchange actually runs over the virtual
// network, so the attacker's view shrinks to what was delivered.
func figMeasured(nodes, trials int, seed int64, loss, churn float64) {
	t := metrics.NewTable(fmt.Sprintf(
		"Fig. 7 (measured) — anonymity vs f on a %d-node simnet (L=8, d=3, loss=%g, churn=%g)",
		nodes, loss, churn), "f")
	src := t.AddSeries("src")
	dst := t.AddSeries("dst")
	aSrc := t.AddSeries("srcCase1")
	aAna := t.AddSeries("case1(analytic)")
	for _, f := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7} {
		r, err := anonymity.SimulateMeasured(anonymity.MeasuredParams{
			Params:    anonymity.Params{N: nodes, L: 8, D: 3, F: f, Trials: trials},
			Seed:      seed,
			Loss:      loss,
			ChurnDown: churn,
		})
		if err != nil {
			log.Fatalf("anonsim: %v", err)
		}
		src.Add(f, r.Source)
		dst.Add(f, r.Destination)
		aSrc.Add(f, r.SourceCase1)
		aAna.Add(f, anonymity.SourceCase1Prob(3, 3, f))
		fmt.Fprintf(os.Stderr, "anonsim: f=%.2f done (%d slices delivered, %d lost)\n",
			f, r.Deliveries, r.Lost)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

func simulate(p anonymity.Params) anonymity.Result {
	r, err := anonymity.Simulate(p)
	if err != nil {
		log.Fatalf("anonsim: %v", err)
	}
	return r
}

func fig7(n, trials int, seed int64) {
	t := metrics.NewTable("Fig. 7 — anonymity vs fraction of malicious nodes (N=10000, L=8, d=3)", "f")
	src := t.AddSeries("src")
	dst := t.AddSeries("dst")
	chSrc := t.AddSeries("src(Chaum)")
	chDst := t.AddSeries("dst(Chaum)")
	for _, f := range []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		r := simulate(anonymity.Params{N: n, L: 8, D: 3, F: f, Trials: trials,
			Rng: rand.New(rand.NewSource(seed))})
		src.Add(f, r.Source)
		dst.Add(f, r.Destination)
		c, err := anonymity.SimulateChaum(anonymity.Params{N: n, L: 8, D: 3, F: f,
			Trials: trials, Rng: rand.New(rand.NewSource(seed + 1))})
		if err != nil {
			log.Fatal(err)
		}
		chSrc.Add(f, c.Source)
		chDst.Add(f, c.Destination)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

func fig8(n, trials int, seed int64) {
	t := metrics.NewTable("Fig. 8 — anonymity vs split factor d (N=10000, L=8)", "d")
	s1 := t.AddSeries("src(f=0.1)")
	d1 := t.AddSeries("dst(f=0.1)")
	s4 := t.AddSeries("src(f=0.4)")
	d4 := t.AddSeries("dst(f=0.4)")
	for d := 2; d <= 12; d++ {
		r1 := simulate(anonymity.Params{N: n, L: 8, D: d, F: 0.1, Trials: trials,
			Rng: rand.New(rand.NewSource(seed))})
		r4 := simulate(anonymity.Params{N: n, L: 8, D: d, F: 0.4, Trials: trials,
			Rng: rand.New(rand.NewSource(seed + 1))})
		s1.Add(float64(d), r1.Source)
		d1.Add(float64(d), r1.Destination)
		s4.Add(float64(d), r4.Source)
		d4.Add(float64(d), r4.Destination)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

func fig9(n, trials int, seed int64) {
	t := metrics.NewTable("Fig. 9 — anonymity vs path length L (N=10000, d=3, f=0.1)", "L")
	src := t.AddSeries("src")
	dst := t.AddSeries("dst")
	for l := 2; l <= 20; l += 2 {
		r := simulate(anonymity.Params{N: n, L: l, D: 3, F: 0.1, Trials: trials,
			Rng: rand.New(rand.NewSource(seed))})
		src.Add(float64(l), r.Source)
		dst.Add(float64(l), r.Destination)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

func fig10(n, trials int, seed int64) {
	t := metrics.NewTable("Fig. 10 — anonymity vs added redundancy (d=3, L=8, f=0.1)", "R")
	src := t.AddSeries("src")
	dst := t.AddSeries("dst")
	for dp := 3; dp <= 10; dp++ {
		r := simulate(anonymity.Params{N: n, L: 8, D: 3, DPrime: dp, F: 0.1,
			Trials: trials, Rng: rand.New(rand.NewSource(seed))})
		red := float64(dp-3) / 3
		src.Add(red, r.Source)
		dst.Add(red, r.Destination)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}
