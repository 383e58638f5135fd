// Command perfeval regenerates the performance figures of §7 using the
// calibrated 2007 environments (see internal/perf and EXPERIMENTS.md):
//
//	perfeval -fig 11   LAN per-flow throughput vs path length,
//	                   information slicing (d=2) vs onion routing
//	perfeval -fig 12   the same on the PlanetLab profile
//	perfeval -fig 13   total network throughput vs concurrent flows
//	perfeval -fig 14   LAN setup time vs path length for onion and d=2,3,4
//	perfeval -fig 15   the same on the PlanetLab profile
//	perfeval -fig 0    all of the above
//
// -cpuprofile and -mutexprofile write pprof profiles covering the run
// (combine with a single -fig so the profile isolates one experiment).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"infoslicing/internal/metrics"
	"infoslicing/internal/overlay"
	"infoslicing/internal/perf"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (11-15; 0 = all)")
	transfer := flag.Int("bytes", 1<<20, "transfer size for throughput figures")
	reps := flag.Int("reps", 3, "repetitions averaged per setup-time point")
	seed := flag.Int64("seed", 1, "rng seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this file")
	flag.Parse()

	// Profiles cover the whole run: point perfeval at one figure so the
	// profile isolates the experiment of interest.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("perfeval: create cpu profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("perfeval: start cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(5)
		defer func() {
			f, err := os.Create(*mutexprofile)
			if err != nil {
				log.Fatalf("perfeval: create mutex profile: %v", err)
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				log.Fatalf("perfeval: write mutex profile: %v", err)
			}
		}()
	}

	switch *fig {
	case 11:
		throughputFig("Fig. 11 — LAN per-flow throughput (Mb/s)", perf.LAN2007(), *transfer, *seed)
	case 12:
		throughputFig("Fig. 12 — PlanetLab per-flow throughput (Mb/s)", perf.PlanetLab2007(), *transfer/8, *seed)
	case 13:
		fig13(*transfer, *seed)
	case 14:
		setupFig("Fig. 14 — LAN graph setup time (ms)", perf.LAN2007(), *reps, *seed)
	case 15:
		setupFig("Fig. 15 — PlanetLab graph setup time (ms)", perf.PlanetLab2007(), *reps, *seed)
	case 0:
		throughputFig("Fig. 11 — LAN per-flow throughput (Mb/s)", perf.LAN2007(), *transfer, *seed)
		throughputFig("Fig. 12 — PlanetLab per-flow throughput (Mb/s)", perf.PlanetLab2007(), *transfer/8, *seed)
		fig13(*transfer, *seed)
		setupFig("Fig. 14 — LAN graph setup time (ms)", perf.LAN2007(), *reps, *seed)
		setupFig("Fig. 15 — PlanetLab graph setup time (ms)", perf.PlanetLab2007(), *reps, *seed)
	default:
		log.Fatalf("perfeval: unknown figure %d", *fig)
	}
}

func throughputFig(title string, env perf.Env, transfer int, seed int64) {
	t := metrics.NewTable(title, "L")
	sl := t.AddSeries("slicing(d=2)")
	on := t.AddSeries("onion")
	for _, l := range []int{2, 3, 4, 5} {
		slr, err := perf.SlicingFlow(perf.Params{
			Profile: env.Profile, L: l, D: 2, DPrime: 2,
			TransferBytes: transfer, ChunkPayload: 2400, Seed: seed,
		})
		if err != nil {
			log.Fatalf("perfeval: slicing L=%d: %v", l, err)
		}
		onr, err := perf.OnionFlow(perf.Params{
			Profile: env.Profile, L: l, D: 1, OnionCryptoPerKB: env.OnionCryptoPerKB,
			TransferBytes: transfer, ChunkPayload: 1200, Seed: seed,
		})
		if err != nil {
			log.Fatalf("perfeval: onion L=%d: %v", l, err)
		}
		sl.Add(float64(l), slr.Throughput/1e6)
		on.Add(float64(l), onr.Throughput/1e6)
		fmt.Fprintf(os.Stderr, "perfeval: L=%d done\n", l)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

func fig13(transfer int, seed int64) {
	t := metrics.NewTable("Fig. 13 — network throughput vs concurrent flows (100-node pool, d=3, L=5)", "flows")
	tot := t.AddSeries("total(Mb/s)")
	for _, flows := range []int{1, 2, 4, 8, 16, 24} {
		bps, err := perf.SlicingScaling(perf.ScalingParams{
			Params: perf.Params{
				Profile: overlay.Unshaped(), L: 5, D: 3, DPrime: 3,
				TransferBytes: transfer / 4, ChunkPayload: 3600, Seed: seed,
			},
			PoolSize: 100, Flows: flows,
		})
		if err != nil {
			log.Fatalf("perfeval: scaling %d flows: %v", flows, err)
		}
		tot.Add(float64(flows), bps/1e6)
		fmt.Fprintf(os.Stderr, "perfeval: %d flows done\n", flows)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}

func setupFig(title string, env perf.Env, reps int, seed int64) {
	t := metrics.NewTable(title, "L")
	onion := t.AddSeries("onion")
	var slicing []*metrics.Series
	for _, d := range []int{2, 3, 4} {
		slicing = append(slicing, t.AddSeries(fmt.Sprintf("slicing(d=%d)", d)))
	}
	for _, l := range []int{1, 2, 3, 4, 5, 6} {
		var onMS []float64
		for r := 0; r < reps; r++ {
			onr, err := perf.OnionFlow(perf.Params{
				Profile: env.Profile, L: l, D: 1, OnionCryptoPerKB: env.OnionCryptoPerKB,
				TransferBytes: 1 << 10, Seed: seed + int64(r),
			})
			if err != nil {
				log.Fatalf("perfeval: onion setup L=%d: %v", l, err)
			}
			onMS = append(onMS, float64(onr.SetupTime.Microseconds())/1000)
		}
		onion.Add(float64(l), metrics.Mean(onMS))
		for i, d := range []int{2, 3, 4} {
			var slMS []float64
			for r := 0; r < reps; r++ {
				slr, err := perf.SlicingFlow(perf.Params{
					Profile: env.Profile, L: l, D: d, DPrime: d,
					TransferBytes: 1 << 10, Seed: seed + int64(r),
				})
				if err != nil {
					log.Fatalf("perfeval: slicing setup L=%d d=%d: %v", l, d, err)
				}
				slMS = append(slMS, float64(slr.SetupTime.Microseconds())/1000)
			}
			slicing[i].Add(float64(l), metrics.Mean(slMS))
		}
		fmt.Fprintf(os.Stderr, "perfeval: setup L=%d done\n", l)
	}
	t.Fprint(os.Stdout)
	fmt.Println()
}
