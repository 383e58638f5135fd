// Command figures prints the evaluation's figures, one fixed-width table
// per row of eval.Figures with the plotted series as its columns:
//
//	figures -fig 7    §6 anonymity vs fraction of malicious nodes (also 8: vs
//	                  split factor, 9: vs path length, 10: vs redundancy)
//	figures -fig 11   §7 per-flow throughput on the LAN (12: on PlanetLab),
//	                  13: network throughput vs concurrent flows, 14 and 15:
//	                  set-up time on the LAN and on PlanetLab
//	figures -fig 16   §8 analytic transfer success under churn (two tables),
//	                  17: session success of the real stacks under churn
//	figures -fig 19   this repository's live-repair extension
//	figures -fig 0    all of them
//
// Every table is a function of -seed: Figs. 7-10 draw from seeded
// generators, Fig. 16 is closed-form, and the rest run the real protocol
// stacks on virtual time. FIGURES.txt holds the output at -seed 1.
//
// With -measured the tool instead re-runs Fig. 7 on a -nodes simnet
// overlay, -trials per point: the attacker observes only the slices the
// virtual network delivers, so -loss and -churn open a gap above the
// analytic curves.
//
// To profile one figure, run its benchmark:
// go test -run '^$' -bench 'BenchmarkFigures/fig13' -cpuprofile cpu.prof .
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"infoslicing/internal/anonymity"
	"infoslicing/internal/eval"
	"infoslicing/internal/metrics"
)

func main() {
	fig := flag.Int("fig", 0, "figure to print (7-17, 19; 0 = all)")
	seed := flag.Int64("seed", 1, "rng seed")
	measured := flag.Bool("measured", false, "re-run Fig. 7 on a simnet overlay instead")
	nodes := flag.Int("nodes", 100000, "overlay size for -measured")
	trials := flag.Int("trials", 1000, "trials per point for -measured")
	loss := flag.Float64("loss", 0, "per-link slice loss probability for -measured")
	churn := flag.Float64("churn", 0, "per-relay down probability for -measured")
	flag.Parse()

	if *measured {
		show(eval.Measured(*nodes, *trials, *loss, *churn, func(f float64, r anonymity.MeasuredResult) {
			fmt.Fprintf(os.Stderr, "figures: f=%.2f done (%d slices delivered, %d lost)\n", f, r.Deliveries, r.Lost)
		}), *seed)
		return
	}
	ran := false
	for _, f := range eval.Figures {
		if *fig == 0 || *fig == f.Fig {
			show(f, *seed)
			ran = true
		}
	}
	if !ran {
		log.Fatalf("figures: unknown figure %d", *fig)
	}
}

// show runs f on seed and prints its table.
func show(f eval.Figure, seed int64) {
	ss, err := f.Run(seed)
	if err != nil {
		log.Fatalf("figures: %s: %v", f.Name, err)
	}
	metrics.NewTable(f.Title, f.XLabel, ss...).Fprint(os.Stdout)
	fmt.Println()
}
