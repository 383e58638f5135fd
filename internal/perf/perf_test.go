package perf

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"infoslicing/internal/metrics"
	"infoslicing/internal/simnet"
)

func TestParamsValidation(t *testing.T) {
	if _, err := SlicingFlow(Params{L: 0, D: 2}); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := OnionFlow(Params{L: 2, D: 0}); err == nil {
		t.Fatal("D=0 accepted")
	}
	if _, err := SlicingScaling(ScalingParams{
		Params: Params{L: 5, D: 3}, PoolSize: 5, Flows: 1,
	}); err == nil {
		t.Fatal("tiny pool accepted")
	}
}

// hop is a link with a propagation delay and no rate or jitter shaping.
var hop = simnet.LinkProfile{Delay: time.Millisecond}

func TestSlicingFlowUnshaped(t *testing.T) {
	res, err := SlicingFlow(Params{
		Profile: hop, L: 3, D: 2, DPrime: 2,
		TransferBytes: 64 << 10, ChunkPayload: 2048, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Set-up crosses the three stages, one hop each.
	if res.SetupTime != 3*time.Millisecond || res.Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
}

func TestOnionFlowUnshaped(t *testing.T) {
	res, err := OnionFlow(Params{
		Profile: hop, L: 3, D: 1,
		TransferBytes: 64 << 10, ChunkPayload: 2048, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SetupTime != 3*time.Millisecond || res.Throughput <= 0 {
		t.Fatalf("%+v", res)
	}
}

// TestFigures checks the qualitative claims of §7's Figs. 11-15 on the
// emulated 2007 links. Every time is read from the virtual clock, so each
// figure is run twice on one seed and the two series must be identical.
func TestFigures(t *testing.T) {
	lan, pl := LAN2007(), PlanetLab2007()
	for _, fig := range []struct {
		name  string
		run   func() ([]*metrics.Series, error)
		check func(t *testing.T, ss []*metrics.Series)
	}{
		{"fig11_lan", func() ([]*metrics.Series, error) { return ThroughputSweep(lan, 256<<10, 1) },
			func(t *testing.T, ss []*metrics.Series) {
				slicingBeatsOnion(t, ss)
				// Calibration: onion on the LAN stays inside a 10-60 Mb/s
				// band around the paper's ~25-35 Mb/s.
				for i, y := range ss[1].Y {
					if y < 10 || y > 60 {
						t.Errorf("onion at L=%g: %.1f Mb/s outside the 10-60 Mb/s calibration band", ss[1].X[i], y)
					}
				}
			}},
		{"fig12_planetlab", func() ([]*metrics.Series, error) { return ThroughputSweep(pl, 64<<10, 1) },
			slicingBeatsOnion},
		{"fig13_scaling", func() ([]*metrics.Series, error) { return ScalingSweep([]int{1, 2, 4, 8, 16}, 128<<10, 1) },
			func(t *testing.T, ss []*metrics.Series) {
				x, y := ss[0].X, ss[0].Y
				// Total throughput grows with flows until relays saturate. Two
				// flows can meet on one relay and share its uplink, so growth
				// may stall, but no point may fall more than 5% below its
				// predecessor.
				for i := 1; i < len(y); i++ {
					if y[i] < 0.95*y[i-1] {
						t.Errorf("%g flows: %.1f Mb/s, more than 5%% below %g flows' %.1f", x[i], y[i], x[i-1], y[i-1])
					}
				}
				if y[3] < 2*y[0] {
					t.Errorf("8 flows: %.1f Mb/s, less than twice 1 flow's %.1f", y[3], y[0])
				}
			}},
		// Set-up messages shrink stage by stage, so serialization adds a
		// term in L² that bows the LAN curves; on PlanetLab the 90 ms of
		// per-hop jitter dominates the residuals instead. With each point
		// the mean of 3 runs, as perfeval prints it, the worst point over
		// seeds 1-10 lies 8.1% of its series' largest value off the line
		// (LAN, d=3 and d=4); the tolerance is 12%.
		{"fig14_setup_lan", func() ([]*metrics.Series, error) { return SetupSweep(lan, 3, 1) }, linearInL(0.12)},
		{"fig15_setup_planetlab", func() ([]*metrics.Series, error) { return SetupSweep(pl, 3, 1) }, linearInL(0.12)},
	} {
		t.Run(fig.name, func(t *testing.T) {
			a, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different series:\n%v\n%v", series(a), series(b))
			}
			fig.check(t, a)
			if t.Failed() {
				t.Log(series(a))
			}
		})
	}
}

// slicingBeatsOnion checks Figs. 11-12: slicing (ss[0]) delivers more
// goodput than onion routing (ss[1]) at every path length.
func slicingBeatsOnion(t *testing.T, ss []*metrics.Series) {
	t.Helper()
	for i, l := range ss[0].X {
		if sl, on := ss[0].Y[i], ss[1].Y[i]; sl <= on {
			t.Errorf("L=%g: slicing %.3f Mb/s does not beat onion %.3f", l, sl, on)
		}
	}
}

// linearInL checks Figs. 14-15: every series grows linearly in L — its
// least-squares slope is positive and no point lies further from the
// fitted line than tol times the series' largest value.
func linearInL(tol float64) func(*testing.T, []*metrics.Series) {
	return func(t *testing.T, ss []*metrics.Series) {
		t.Helper()
		for _, s := range ss {
			n := float64(len(s.X))
			var sx, sy, sxx, sxy, top float64
			for i, x := range s.X {
				y := s.Y[i]
				sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
				top = math.Max(top, y)
			}
			slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
			icept := (sy - slope*sx) / n
			if slope <= 0 {
				t.Errorf("%s: slope %.3f ms per stage, want > 0", s.Name, slope)
			}
			worst := 0.0
			for i, x := range s.X {
				worst = math.Max(worst, math.Abs(s.Y[i]-(icept+slope*x)))
			}
			if worst > tol*top {
				t.Errorf("%s: a point lies %.3f ms off the fitted line, more than %.0f%% of the largest point %.3f", s.Name, worst, 100*tol, top)
			}
		}
	}
}

// series renders ss as a table, for failure messages.
func series(ss []*metrics.Series) string {
	t := metrics.NewTable("", "x")
	for _, s := range ss {
		*t.AddSeries(s.Name) = *s
	}
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
