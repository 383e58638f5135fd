// Command benchguard gates allocation regressions in CI: it parses `go
// test -bench` output and fails (exit 1) when a benchmark named in the
// committed baseline allocates more than its ceiling — or is missing from
// the run entirely, so a renamed benchmark cannot silently drop out of the
// gate.
//
//	go test -run '^$' -bench '...' -benchtime 200x ./... | tee bench.out
//	go run ./cmd/benchguard -baseline bench_baseline.json bench.out
//
// allocs/op is deterministic for a fixed -benchtime, so the ceilings
// compare exactly and mean something on noisy shared CI runners. Timing is
// not judged here: that is `bench -compare` on alternating pairs (bench/).
//
// Run with -update to rewrite the ceilings from the measured values after
// an intentional change: every benchmark in the run gets an entry, a new one
// included, and the file is written sorted by name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Baseline is the committed performance contract, one entry per gated
// benchmark (sub-benchmark names included, GOMAXPROCS suffix stripped).
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// AllocsPerOp maps benchmark name to the maximum allowed allocs/op.
	AllocsPerOp map[string]int64 `json:"allocs_per_op"`
}

// procSuffix strips the -GOMAXPROCS tail go test appends on multi-core
// machines (BenchmarkX/sub-8 → BenchmarkX/sub).
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "baseline JSON path")
	update := flag.Bool("update", false, "rewrite the baseline from measured values instead of gating")
	prune := flag.Bool("prune", false, "with -update, drop baseline entries matching no benchmark in the run")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("open bench output: %v", err)
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		fatalf("parse bench output: %v", err)
	}
	if len(results) == 0 {
		fatalf("no allocs/op result lines found (did the bench run crash?)")
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("read baseline: %v", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("parse baseline: %v", err)
	}

	if *update {
		updateBaseline(os.Stdout, &base, results, *prune)
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatalf("marshal baseline: %v", err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatalf("write baseline: %v", err)
		}
		fmt.Printf("benchguard: baseline %s updated (%d alloc gates)\n",
			*baselinePath, len(base.AllocsPerOp))
		return
	}

	failed, missing := gateAllocs(os.Stdout, &base, results)
	if len(missing) > 0 {
		// A benchmark that disappears from the run is a gate silently
		// switching off — usually a rename, a deleted sub-benchmark, or the
		// bench invocation no longer matching it. Spell out exactly what is
		// gone so the fix (update the -bench pattern, or rename/remove the
		// entry in the baseline) is obvious from the CI log alone.
		fmt.Fprintf(os.Stderr,
			"benchguard: %d baseline benchmark(s) missing from this run:\n", len(missing))
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "benchguard:   - %s\n", name)
		}
		fmt.Fprintf(os.Stderr,
			"benchguard: renamed or deleted benchmarks must be updated in %s (and in the -bench pattern that produced this run)\n",
			*baselinePath)
	}
	if failed > 0 {
		fatalf("%d of %d gated benchmarks regressed or went missing", failed, len(base.AllocsPerOp))
	}
	fmt.Printf("benchguard: all %d gated benchmarks within baseline\n", len(base.AllocsPerOp))
}

// updateBaseline sets every benchmark in results to its measured value,
// adding the ones the baseline lacks, and keeps an entry the run did not
// measure unless prune drops it.
func updateBaseline(w io.Writer, base *Baseline, results map[string]int64, prune bool) {
	if base.AllocsPerOp == nil {
		base.AllocsPerOp = make(map[string]int64)
	}
	for _, name := range slices.Sorted(maps.Keys(results)) {
		if _, ok := base.AllocsPerOp[name]; !ok {
			fmt.Fprintf(w, "benchguard: added %q (%d allocs/op)\n", name, results[name])
		}
		base.AllocsPerOp[name] = results[name]
	}
	for _, name := range slices.Sorted(maps.Keys(base.AllocsPerOp)) {
		switch _, ok := results[name]; {
		case ok:
		case prune:
			delete(base.AllocsPerOp, name)
			fmt.Fprintf(w, "benchguard: pruned stale entry %q (matches no benchmark in this run)\n", name)
		default:
			fmt.Fprintf(w, "benchguard: warning: baseline entry %q matches no benchmark in this run; kept as-is (use -update -prune to drop it)\n", name)
		}
	}
}

// gateAllocs prints one verdict line per baseline entry and returns how many
// regressed or went missing, and the missing names.
func gateAllocs(w io.Writer, base *Baseline, results map[string]int64) (failed int, missing []string) {
	for _, name := range slices.Sorted(maps.Keys(base.AllocsPerOp)) {
		allowed := base.AllocsPerOp[name]
		got, ok := results[name]
		switch {
		case !ok:
			fmt.Fprintf(w, "MISSING  %-55s baseline %4d allocs/op, not measured\n", name, allowed)
			missing = append(missing, name)
			failed++
		case got > allowed:
			fmt.Fprintf(w, "FAIL     %-55s baseline %4d, got %4d allocs/op\n", name, allowed, got)
			failed++
		default:
			fmt.Fprintf(w, "ok       %-55s baseline %4d, got %4d allocs/op\n", name, allowed, got)
		}
	}
	return failed, missing
}

// parseBench extracts allocs/op per benchmark name from go test -bench
// output. A name measured more than once (e.g. -count > 1) keeps its worst
// value: allocation counts are deterministic, so any excess is real.
func parseBench(r io.Reader) (map[string]int64, error) {
	out := make(map[string]int64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		for i := 2; i < len(fields); i++ {
			if fields[i] != "allocs/op" {
				continue
			}
			v, err := strconv.ParseInt(fields[i-1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad allocs/op %q", sc.Text(), fields[i-1])
			}
			if prev, seen := out[name]; !seen || v > prev {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}
