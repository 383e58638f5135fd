package metrics

import (
	"fmt"
	"slices"
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
	v := NewVocab("a", "b", "c")
	c := NewShardedCounter(5, v)
	if stripes := len(c.cells) / c.stride; stripes != 8 || c.stride != cacheLine/8 {
		t.Fatalf("%d stripes of %d cells, want 8 of %d", stripes, c.stride, cacheLine/8)
	}
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(w, 1, 1)
				c.Add(w, 2, 2)
			}
		}(uint64(w))
	}
	wg.Wait()
	c.Add(3, 1, -4)
	s := c.Snapshot()
	if s.Get("a") != 0 || s.Get("b") != workers*per-4 || s.Get("c") != 2*workers*per {
		t.Fatalf("snapshot %v", s)
	}
	if len(NewShardedCounter(0, v).cells) != c.stride {
		t.Fatal("min stripes")
	}
	if w := NewShardedCounter(1, NewVocab("1", "2", "3", "4", "5", "6", "7", "8", "9")); w.stride != 2*cacheLine/8 {
		t.Fatalf("9 counters take a stride of %d cells, want two cache lines", w.stride)
	}
}

// A vocabulary's names are unique and non-empty, or it fails at start.
func TestCountersVocabRejectsBadNames(t *testing.T) {
	for _, names := range [][]string{{"a", ""}, {"a", "b", "a"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewVocab(%q) accepted", names)
				}
			}()
			NewVocab(names...)
		}()
	}
}

// Add joins readings of different vocabularies and sums shared names; Sub
// takes the change back out; Each walks the reading in order.
func TestCountersSnapshotRoundTrip(t *testing.T) {
	a := Block{1, 2, 3}.Snapshot(NewVocab("x", "y", "z"))
	b := Block{10, 20}.Snapshot(NewVocab("y", "w"))
	sum := a.Add(b)
	var got []string
	sum.Each(func(name string, v int64) { got = append(got, fmt.Sprintf("%s=%d", name, v)) })
	if want := "x=1 y=12 z=3 w=20"; strings.Join(got, " ") != want {
		t.Fatalf("a+b = %v, want %s", got, want)
	}
	back := sum.Sub(b)
	for _, n := range a.Names {
		if back.Get(n) != a.Get(n) {
			t.Fatalf("(a+b)-b: %s = %d, want %d", n, back.Get(n), a.Get(n))
		}
	}
	if back.Get("w") != 0 {
		t.Fatalf("(a+b)-b: w = %d, want 0", back.Get("w"))
	}
	if a.Get("y") != 2 || len(a.Names) != 3 || b.Get("y") != 10 {
		t.Fatal("Add or Sub wrote into an operand")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get of an unknown name did not panic")
		}
	}()
	a.Get("nope")
}

// Many writers record while one reader takes snapshots: a counter that only
// grows never reads lower than it did in the reading before.
func TestCountersSnapshotsNeverDecrease(t *testing.T) {
	v := NewVocab("p", "q", "r")
	c := NewShardedCounter(4, v)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Add(w, i%len(v), int64(1+i%3))
				}
			}
		}(uint64(w))
	}
	prev := c.Snapshot()
	for i := 0; i < 2000; i++ {
		cur := c.Snapshot()
		for j, n := range cur.Names {
			if cur.Values[j] < prev.Values[j] {
				t.Errorf("%s went %d → %d", n, prev.Values[j], cur.Values[j])
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

func TestTableRendering(t *testing.T) {
	a, b := &Series{Name: "alpha"}, &Series{Name: "beta"}
	tab := NewTable("Fig. X: demo", "x", a, b)
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
	// x prints like y, to four significant digits, inside its column.
	sb.Reset()
	NewTable("", "x", &Series{Name: "y", X: []float64{1.0 / 3}, Y: []float64{2.0 / 3}}).Fprint(&sb)
	if row := strings.Split(sb.String(), "\n")[2]; row != "0.3333          0.6667        " {
		t.Fatalf("row %q", row)
	}
}

// A full ring keeps the newest entries, oldest first, counts what it
// overwrote, and pushes without allocating.
func TestRingKeepsNewest(t *testing.T) {
	r := NewRing[int](16)
	if got := slices.Collect(r.All()); len(got) != 0 {
		t.Fatalf("empty ring holds %v", got)
	}
	for i := 0; i < 50; i++ {
		r.Push(i)
	}
	if got, want := slices.Collect(r.All()), []int{34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49}; !slices.Equal(got, want) || r.Dropped() != 34 {
		t.Fatalf("ring holds %v after dropping %d, want %v after 34", got, r.Dropped(), want)
	}
	if a := testing.AllocsPerRun(100, func() { r.Push(1) }); a != 0 {
		t.Fatalf("a push into a full ring allocates %v times", a)
	}
}
