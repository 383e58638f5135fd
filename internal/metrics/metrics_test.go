package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	xs := []float64{5, 1, 3, 2, 4} // sorted: 1..5
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	// Interpolated rank: p75 of 1..5 sits at rank 3 → 4.
	if got := Percentile(xs, 75); got != 4 {
		t.Fatalf("p75 = %v", got)
	}
	if got := Percentile([]float64{10, 20}, 50); got != 15 {
		t.Fatalf("interpolated p50 = %v", got)
	}
	// Percentile must not mutate its input.
	if xs[0] != 5 {
		t.Fatal("input mutated")
	}
}

func TestShardedCounter(t *testing.T) {
	c := NewShardedCounter(5)
	if len(c.stripes) != 8 {
		t.Fatalf("stripes = %d, want 8", len(c.stripes))
	}
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(w, 1)
			}
		}(uint64(w))
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value() = %d, want %d", got, workers*per)
	}
	c.Add(3, -4)
	if got := c.Value(); got != workers*per-4 {
		t.Fatalf("negative delta: %d", got)
	}
	if len(NewShardedCounter(0).stripes) != 1 {
		t.Fatal("min stripes")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Fig. X: demo", "x")
	a := tab.AddSeries("alpha")
	b := tab.AddSeries("beta")
	a.Add(1, 0.5)
	a.Add(2, 0.25)
	b.Add(1, 0.9)
	// beta has no point at x=2: rendered as "-".
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "Fig. X: demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatal("missing series names")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, two x rows
		t.Fatalf("lines=%d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "-") {
		t.Fatalf("missing gap marker: %q", lines[3])
	}
}
