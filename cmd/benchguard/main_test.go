package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

const benchOut = `goos: linux
BenchmarkKept-8            	     200	      1234 ns/op	      0 B/op	       3 allocs/op
BenchmarkNew/sub-8         	     200	       567 ns/op	     64 B/op	       2 allocs/op
BenchmarkNew/sub-8         	     200	       560 ns/op	     96 B/op	       4 allocs/op
PASS
`

func parsed(t *testing.T) map[string]int64 {
	t.Helper()
	results, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"BenchmarkKept": 3, "BenchmarkNew/sub": 4} // a repeated name keeps its worst
	if !maps.Equal(results, want) {
		t.Fatalf("parsed %v, want %v", results, want)
	}
	return results
}

// TestUpdateBaseline: -update rewrites a measured entry, adds one the
// baseline lacks, and keeps a stale one unless -prune drops it.
func TestUpdateBaseline(t *testing.T) {
	for _, prune := range []bool{false, true} {
		base := &Baseline{AllocsPerOp: map[string]int64{"BenchmarkKept": 1, "BenchmarkGone": 5}}
		var out strings.Builder
		updateBaseline(&out, base, parsed(t), prune)
		want := map[string]int64{"BenchmarkKept": 3, "BenchmarkNew/sub": 4, "BenchmarkGone": 5}
		if prune {
			delete(want, "BenchmarkGone")
		}
		if !maps.Equal(base.AllocsPerOp, want) {
			t.Errorf("prune %v: baseline %v, want %v", prune, base.AllocsPerOp, want)
		}
		if !strings.Contains(out.String(), `added "BenchmarkNew/sub" (4 allocs/op)`) {
			t.Errorf("prune %v: output does not name the added entry:\n%s", prune, out.String())
		}
		if verb := map[bool]string{false: "warning", true: "pruned"}[prune]; !strings.Contains(out.String(), verb) ||
			!strings.Contains(out.String(), `"BenchmarkGone"`) {
			t.Errorf("prune %v: output does not report the stale entry as %s:\n%s", prune, verb, out.String())
		}
	}
}

// TestGateAllocs: the gate fails an entry that allocates past its ceiling and
// one the run did not measure, and passes one within it.
func TestGateAllocs(t *testing.T) {
	base := &Baseline{AllocsPerOp: map[string]int64{"BenchmarkKept": 3, "BenchmarkNew/sub": 3, "BenchmarkGone": 1}}
	var out strings.Builder
	failed, missing := gateAllocs(&out, base, parsed(t))
	if failed != 2 || !slices.Equal(missing, []string{"BenchmarkGone"}) {
		t.Errorf("failed %d, missing %v; want 2 and [BenchmarkGone]", failed, missing)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, prefix := range []string{"MISSING  BenchmarkGone", "ok       BenchmarkKept", "FAIL     BenchmarkNew/sub"} {
		if i >= len(lines) || !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("verdict line %d is %q, want it to start %q:\n%s", i, lines[min(i, len(lines)-1)], prefix, out.String())
		}
	}
}
