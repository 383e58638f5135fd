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
// analytic curves. With -scale it runs a session-churn scenario on a
// -nodes walker universe for -window of virtual time: Weibull sessions and
// lognormal downtimes over a quarter of the overlay while walker traffic
// circulates, reporting deliveries, events/sec and heap bytes/node.
//
// To profile one figure, run its benchmark:
// go test -run '^$' -bench 'BenchmarkFigures/fig13' -cpuprofile cpu.prof .
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"infoslicing/internal/anonymity"
	"infoslicing/internal/eval"
	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
)

func main() {
	fig := flag.Int("fig", 0, "figure to print (7-17, 19; 0 = all)")
	seed := flag.Int64("seed", 1, "rng seed")
	measured := flag.Bool("measured", false, "re-run Fig. 7 on a simnet overlay instead")
	scale := flag.Bool("scale", false, "run the scale session-churn scenario instead")
	nodes := flag.Int("nodes", 100000, "overlay size for -measured and -scale")
	trials := flag.Int("trials", 1000, "trials per point for -measured")
	loss := flag.Float64("loss", 0, "per-link slice loss probability for -measured")
	churn := flag.Float64("churn", 0, "per-relay down probability for -measured")
	window := flag.Duration("window", 100*time.Millisecond, "virtual run window for -scale")
	flag.Parse()

	switch {
	case *scale:
		runScale(*nodes, *seed, *window)
	case *measured:
		show(eval.Measured(*nodes, *trials, *loss, *churn, func(f float64, r anonymity.MeasuredResult) {
			fmt.Fprintf(os.Stderr, "figures: f=%.2f done (%d slices delivered, %d lost)\n", f, r.Deliveries, r.Lost)
		}), *seed)
	default:
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

// runScale exercises the million-node event core: an N-node walker
// universe under trace-style session churn.
func runScale(nodes int, seed int64, window time.Duration) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	clk := simnet.NewVirtualClock()
	net := simnet.NewSimNet(clk, seed, simnet.LinkProfile{Delay: time.Millisecond})
	s := &simnet.Script{Clk: clk, Net: net}
	u, err := simnet.NewUniverse(s, simnet.UniverseConfig{
		Nodes: nodes, Degree: 4, Walkers: nodes / 10, Seed: seed,
	})
	if err != nil {
		log.Fatalf("figures: %v", err)
	}
	sched := s.ScheduleSessionChurn(simnet.SessionChurnSpec{
		Nodes:    u.NodeIDs()[:nodes/4],
		Session:  simnet.SessionDist{Kind: simnet.DistWeibull, Shape: 0.6, Scale: window / 5},
		Downtime: simnet.SessionDist{Kind: simnet.DistLognormal, Shape: 0.8, Scale: window / 10},
		Start:    window / 20,
		Stop:     window * 9 / 10,
		Seed:     seed + 1,
	})
	u.Seed()
	t0 := time.Now()
	u.Run(window)
	wall := time.Since(t0)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / float64(nodes)
	fmt.Printf("scale scenario: %d nodes, %s virtual window\n", nodes, window)
	fmt.Printf("  deliveries        %d\n", u.Deliveries())
	fmt.Printf("  churn transitions %d\n", len(sched))
	fmt.Printf("  wall time         %s (%.0f events/sec)\n", wall.Round(time.Millisecond),
		float64(u.Deliveries())/wall.Seconds())
	fmt.Printf("  heap              %.0f bytes/node\n", perNode)
	runtime.KeepAlive(u)
}
