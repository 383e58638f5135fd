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
// an intentional change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
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
		updateBaseline(&base, results, *prune)
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

	failed, missing := gateAllocs(&base, results)
	if len(missing) > 0 {
		// A benchmark that disappears from the run is a gate silently
		// switching off — usually a rename, a deleted sub-benchmark, or the
		// bench invocation no longer matching it. Spell out exactly what is
		// gone so the fix (update the -bench pattern, or rename/remove the
		// entry in the baseline) is obvious from the CI log alone.
		sort.Strings(missing)
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

func updateBaseline(base *Baseline, results map[string]int64, prune bool) {
	var stale []string
	for name := range base.AllocsPerOp {
		got, ok := results[name]
		if !ok {
			stale = append(stale, name)
			continue
		}
		base.AllocsPerOp[name] = got
	}
	sort.Strings(stale)
	for _, name := range stale {
		if prune {
			delete(base.AllocsPerOp, name)
			fmt.Printf("benchguard: pruned stale entry %q (matches no benchmark in this run)\n", name)
		} else {
			fmt.Fprintf(os.Stderr,
				"benchguard: warning: baseline entry %q matches no benchmark in this run; kept as-is (use -update -prune to drop it)\n", name)
		}
	}
}

func gateAllocs(base *Baseline, results map[string]int64) (failed int, missing []string) {
	names := make([]string, 0, len(base.AllocsPerOp))
	for name := range base.AllocsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		allowed := base.AllocsPerOp[name]
		got, ok := results[name]
		switch {
		case !ok:
			fmt.Printf("MISSING  %-55s baseline %4d allocs/op, not measured\n", name, allowed)
			missing = append(missing, name)
			failed++
		case got > allowed:
			fmt.Printf("FAIL     %-55s baseline %4d, got %4d allocs/op\n", name, allowed, got)
			failed++
		default:
			fmt.Printf("ok       %-55s baseline %4d, got %4d allocs/op\n", name, allowed, got)
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
