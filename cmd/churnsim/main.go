// Command churnsim regenerates the churn-resilience results of §8:
//
//	churnsim -fig 16   analytic P(success) vs added redundancy for
//	                   information slicing and onion+erasure-codes, at node
//	                   failure probabilities 0.1 and 0.3 (L=5, d=2)
//	churnsim -fig 17   experimental session success over a failure-injected
//	                   overlay running the real protocol stacks: slicing,
//	                   onion+erasure-codes, and standard onion routing
//	churnsim -fig 19   live-repair extension: end-to-end delivery when every
//	                   flow loses more same-stage relays than the redundancy
//	                   budget covers, with the control plane in repair vs
//	                   detection-only mode
//	churnsim -fig 0    all of the above
//
// With -scale the tool instead runs a session-churn scenario on an
// N-node walker universe (-nodes, default 100000): Weibull sessions and
// lognormal downtimes over a quarter of the overlay while walker traffic
// circulates, reporting deliveries, events/sec, and heap bytes/node.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"infoslicing/internal/eval"
	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (16, 17, 19; 0 = all)")
	trials := flag.Int("trials", 25, "sessions per point (fig 17)")
	failProb := flag.Float64("p", 0.2, "per-session node failure probability (fig 17)")
	seed := flag.Int64("seed", 1, "rng seed")
	scale := flag.Bool("scale", false, "run the scale session-churn scenario instead of a figure")
	nodes := flag.Int("nodes", 100000, "universe size for -scale")
	window := flag.Duration("window", 100*time.Millisecond, "virtual run window for -scale")
	flag.Parse()

	if *scale {
		runScale(*nodes, *seed, *window)
		return
	}
	switch *fig {
	case 16:
		fig16()
	case 17:
		fig17(*trials, *failProb, *seed)
	case 19:
		fig19(*seed)
	case 0:
		fig16()
		fig17(*trials, *failProb, *seed)
		fig19(*seed)
	default:
		log.Fatalf("churnsim: unknown figure %d", *fig)
	}
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
		log.Fatalf("churnsim: %v", err)
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

func fig16() {
	for _, p := range []float64{0.1, 0.3} {
		metrics.NewTable(fmt.Sprintf("Fig. 16 — analytic transfer success vs redundancy (L=5, d=2, p=%g)", p), "R", eval.AnalyticSweep(p)...).Fprint(os.Stdout)
		fmt.Println()
	}
}

func fig17(trials int, p float64, seed int64) {
	ss, err := eval.ChurnSweep(trials, p, seed)
	if err != nil {
		log.Fatalf("churnsim: %v", err)
	}
	metrics.NewTable(fmt.Sprintf("Fig. 17 — experimental session success vs redundancy (L=5, d=2, p=%g, %d trials)", p, trials), "R", ss...).Fprint(os.Stdout)
}

// fig19 sweeps the number of same-stage kills per flow: at kills <= d'-d
// redundancy alone survives; past that only the repair path does.
func fig19(seed int64) {
	ss, err := eval.RepairSweep(seed)
	if err != nil {
		log.Fatalf("churnsim: %v", err)
	}
	metrics.NewTable("Fig. 19 (extension) — delivery under stage-collapse churn (L=3, d=2, d'=3)", "kills", ss...).Fprint(os.Stdout)
}
