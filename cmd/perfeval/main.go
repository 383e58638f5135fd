// Command perfeval regenerates the performance figures of §7 using the
// calibrated 2007 environments (see internal/eval and EXPERIMENTS.md). The
// runs are on virtual time, so the printed series are a function of -seed:
//
//	perfeval -fig 11   LAN per-flow throughput vs path length,
//	                   information slicing (d=2) vs onion routing
//	perfeval -fig 12   the same on the PlanetLab profile
//	perfeval -fig 13   total network throughput vs concurrent flows (LAN)
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

	"infoslicing/internal/eval"
	"infoslicing/internal/metrics"
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

	lan, pl := eval.LAN2007(), eval.PlanetLab2007()
	ran := false
	for _, f := range []struct {
		fig           int
		title, xlabel string
		run           func() ([]*metrics.Series, error)
	}{
		{11, "Fig. 11 — LAN per-flow throughput (Mb/s)", "L",
			func() ([]*metrics.Series, error) { return eval.ThroughputSweep(lan, *transfer, *seed) }},
		{12, "Fig. 12 — PlanetLab per-flow throughput (Mb/s)", "L",
			func() ([]*metrics.Series, error) { return eval.ThroughputSweep(pl, *transfer/8, *seed) }},
		{13, "Fig. 13 — LAN network throughput vs concurrent flows (100-node pool, d=3, L=5)", "flows",
			func() ([]*metrics.Series, error) {
				return eval.ScalingSweep([]int{1, 2, 4, 8, 16, 24}, *transfer/4, *seed)
			}},
		{14, "Fig. 14 — LAN graph setup time (ms)", "L",
			func() ([]*metrics.Series, error) { return eval.SetupSweep(lan, *reps, *seed) }},
		{15, "Fig. 15 — PlanetLab graph setup time (ms)", "L",
			func() ([]*metrics.Series, error) { return eval.SetupSweep(pl, *reps, *seed) }},
	} {
		if *fig != 0 && *fig != f.fig {
			continue
		}
		ran = true
		ss, err := f.run()
		if err != nil {
			log.Fatalf("perfeval: fig %d: %v", f.fig, err)
		}
		metrics.NewTable(f.title, f.xlabel, ss...).Fprint(os.Stdout)
		fmt.Println()
	}
	if !ran {
		log.Fatalf("perfeval: unknown figure %d", *fig)
	}
}
