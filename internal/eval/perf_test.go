package eval

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

// TestFigures checks the qualitative claims of Figs. 11-17 and 19: §7's on
// the emulated 2007 links, §8's under churn. Every figure is a function of
// its seed, so each is run twice on one seed and the two series must be
// identical.
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
		// Fig. 16: at equal redundancy slicing is at least as likely to
		// succeed as onion+EC, and more redundancy never hurts either.
		{"fig16_analytic_p0.1", func() ([]*metrics.Series, error) { return AnalyticSweep(0.1), nil }, analyticClaims},
		{"fig16_analytic_p0.3", func() ([]*metrics.Series, error) { return AnalyticSweep(0.3), nil }, analyticClaims},
		// Fig. 17: with any redundancy slicing completes at least as many
		// sessions as one onion circuit, and at R=2 it completes all. At R=0
		// slicing's 2L relays must all survive, and Eq. 7 puts it below one
		// circuit of L (0.107 against 0.328 at p=0.2), so R=0 makes no claim.
		// Over seeds 1-10 the worst margin at R>0 is -0.2 (seeds 6 and 8;
		// five trials per point), and slicing is 1 at R=2 on all ten.
		{"fig17_churn", func() ([]*metrics.Series, error) { return ChurnSweep(5, 0.2, 1) }, func(t *testing.T, ss []*metrics.Series) {
			sl, std := ss[0], ss[2]
			atLeast(t, sl, std, 0, false)
			if top := sl.Y[len(sl.Y)-1]; top != 1 {
				t.Errorf("R=%g: slicing completes %.2f of sessions, want 1", sl.X[len(sl.X)-1], top)
			}
		}},
		// Fig. 19: repair delivers at least what detection alone does, and
		// more once the kills exceed the d'-d = 1 relays redundancy covers.
		// Over seeds 1-10 the worst margin past the budget is 0 (seed 9,
		// where recoding carries every detection-only flow past both kills).
		{"fig19_repair", func() ([]*metrics.Series, error) { return RepairSweep(1) }, func(t *testing.T, ss []*metrics.Series) {
			atLeast(t, ss[0], ss[1], math.Inf(-1), false)
			atLeast(t, ss[0], ss[1], 1, true)
		}},
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
	atLeast(t, ss[0], ss[1], math.Inf(-1), true)
}

// analyticClaims checks Fig. 16: slicing (ss[0]) is at least onion+EC
// (ss[1]) at every R, and neither falls as R grows.
func analyticClaims(t *testing.T, ss []*metrics.Series) {
	t.Helper()
	atLeast(t, ss[0], ss[1], math.Inf(-1), false)
	for _, s := range ss {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s falls from %.4g to %.4g at R=%g", s.Name, s.Y[i-1], s.Y[i], s.X[i])
			}
		}
	}
}

// atLeast checks hi ≥ lo — or hi > lo when strict — at every x above from.
// Values within rounding of each other are equal.
func atLeast(t *testing.T, hi, lo *metrics.Series, from float64, strict bool) {
	t.Helper()
	for i, x := range hi.X {
		h, l := hi.Y[i], lo.Y[i]
		tied := math.Abs(h-l) <= 1e-12
		if x > from && (h < l && !tied || strict && tied) {
			t.Errorf("x=%g: %s %.4g, %s %.4g", x, hi.Name, h, lo.Name, l)
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
	var b strings.Builder
	metrics.NewTable("", "x", ss...).Fprint(&b)
	return b.String()
}
