package eval

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"infoslicing/internal/metrics"
)

// TestFigures checks the claim of every row of Figures at the parameters
// cmd/figures prints: §6's anonymity, §7's on the emulated 2007 links, §8's
// under churn. Every row is a function of its seed, so each runs twice on
// one seed and the two series must be identical. The seed margins quoted
// below are over seeds 1-10.
func TestFigures(t *testing.T) {
	checks := map[string]func(t *testing.T, ss []*metrics.Series){
		// Fig. 7: anonymity falls with f and is high at f=0.01; the
		// destination's lies below the source's; and slicing's source
		// anonymity stays within 0.15 of a Chaum mix's while f ≤ 0.1. The
		// smallest step down is 0.0032, dst sits at least 0.001 below src,
		// and src is at most 0.031 from Chaum's.
		"fig7_malicious": func(t *testing.T, ss []*metrics.Series) {
			src, dst, chaum := ss[0], ss[1], ss[2]
			for _, s := range ss {
				falls(t, s)
			}
			if y := at(t, src, 0.01); y < 0.9 {
				t.Errorf("f=0.01: src %.4g, want ≥ 0.9", y)
			}
			if y := at(t, dst, 0.01); y < 0.85 {
				t.Errorf("f=0.01: dst %.4g, want ≥ 0.85", y)
			}
			atLeast(t, src, dst, math.Inf(-1), true)
			for i, x := range src.X {
				if y, c := src.Y[i], chaum.Y[i]; x <= 0.1 && math.Abs(y-c) > 0.15 {
					t.Errorf("f=%g: src %.4g, more than 0.15 from Chaum's %.4g", x, y, c)
				}
			}
		},
		// Fig. 8: at f=0.4 whole-stage compromise dominates, and wider
		// stages are harder to own (by at least 0.085).
		"fig8_split": func(t *testing.T, ss []*metrics.Series) {
			if lo, hi := at(t, ss[3], 2), at(t, ss[3], 12); hi <= lo {
				t.Errorf("%s: %.4g at d=12, not above %.4g at d=2", ss[3].Name, hi, lo)
			}
		},
		// Fig. 9: longer paths hide both ends better.
		"fig9_length": func(t *testing.T, ss []*metrics.Series) {
			for _, s := range ss {
				if lo, hi := at(t, s, 2), at(t, s, 16); hi <= lo {
					t.Errorf("%s: %.4g at L=16, not above %.4g at L=2", s.Name, hi, lo)
				}
			}
		},
		// Fig. 10: redundancy costs destination anonymity (an upstream
		// stage is compromised once d of its d' > d nodes are), and costs
		// source anonymity less. The smallest excess of dst's fall over
		// src's is 0.018 (seed 7).
		"fig10_redundancy": func(t *testing.T, ss []*metrics.Series) {
			src, dst := at(t, ss[0], 0)-at(t, ss[0], 2), at(t, ss[1], 0)-at(t, ss[1], 2)
			if dst <= 0 || dst <= src {
				t.Errorf("R=0 to 2: dst falls %.4g, src %.4g; want dst to fall, and by more", dst, src)
			}
		},
		"fig11_lan": func(t *testing.T, ss []*metrics.Series) {
			slicingBeatsOnion(t, ss)
			// Calibration: onion on the LAN stays inside a 10-60 Mb/s
			// band around the paper's ~25-35 Mb/s.
			for i, y := range ss[1].Y {
				if y < 10 || y > 60 {
					t.Errorf("onion at L=%g: %.1f Mb/s outside the 10-60 Mb/s calibration band", ss[1].X[i], y)
				}
			}
		},
		"fig12_planetlab": slicingBeatsOnion,
		// Fig. 13: total throughput grows with flows until relays
		// saturate. Two flows can meet on one relay and share its uplink,
		// so growth may stall, but no point may fall more than 5% below
		// its predecessor. The smallest step up is 3.7% (seed 1, 1 to 2
		// flows), and 8 flows carry at least 3.2 times 1 flow's total.
		"fig13_scaling": func(t *testing.T, ss []*metrics.Series) {
			x, y := ss[0].X, ss[0].Y
			for i := 1; i < len(y); i++ {
				if y[i] < 0.95*y[i-1] {
					t.Errorf("%g flows: %.1f Mb/s, more than 5%% below %g flows' %.1f", x[i], y[i], x[i-1], y[i-1])
				}
			}
			if one, eight := at(t, ss[0], 1), at(t, ss[0], 8); eight < 2*one {
				t.Errorf("8 flows: %.1f Mb/s, less than twice 1 flow's %.1f", eight, one)
			}
		},
		// Set-up messages shrink stage by stage, so serialization adds a
		// term in L² that bows the LAN curves; on PlanetLab the 90 ms of
		// per-hop jitter dominates the residuals instead. The worst point
		// lies 8.1% of its series' largest value off the line (LAN, d=3
		// and d=4); the tolerance is 12%.
		"fig14_setup_lan":       linearInL(0.12),
		"fig15_setup_planetlab": linearInL(0.12),
		// Fig. 16: at equal redundancy slicing is at least as likely to
		// succeed as onion+EC, and more redundancy never hurts either.
		"fig16_analytic_p0.1": analyticClaims,
		"fig16_analytic_p0.3": analyticClaims,
		// Fig. 17: with any redundancy slicing completes at least as many
		// sessions as one onion circuit, and at R=2 it completes all. At
		// R=0 slicing's 2L relays must all survive, and Eq. 7 puts it below
		// one circuit of L (0.107 against 0.328 at p=0.2), so R=0 makes no
		// claim. The worst margin at R>0 is 0.2 (seed 6), and slicing is 1
		// at R=2 on all ten.
		"fig17_churn": func(t *testing.T, ss []*metrics.Series) {
			sl, std := ss[0], ss[2]
			atLeast(t, sl, std, 0, false)
			if top := sl.Y[len(sl.Y)-1]; top != 1 {
				t.Errorf("R=%g: slicing completes %.2f of sessions, want 1", sl.X[len(sl.X)-1], top)
			}
		},
		// Fig. 19: repair delivers at least what detection alone does, and
		// more once the kills exceed the d'-d = 1 relays redundancy covers.
		// The worst margin past the budget is 0 (seed 9, where recoding
		// carries every detection-only flow past both kills).
		"fig19_repair": func(t *testing.T, ss []*metrics.Series) {
			atLeast(t, ss[0], ss[1], math.Inf(-1), false)
			atLeast(t, ss[0], ss[1], 1, true)
		},
	}
	for _, f := range Figures {
		check := checks[f.Name]
		delete(checks, f.Name)
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			if check == nil {
				t.Fatal("no check for this figure")
			}
			a, err := f.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := f.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different series:\n%v\n%v", series(a), series(b))
			}
			check(t, a)
			if t.Failed() {
				t.Log(series(a))
			}
		})
	}
	for name := range checks {
		t.Errorf("check %s names no figure", name)
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

// falls checks that s falls strictly from each point to the next.
func falls(t *testing.T, s *metrics.Series) {
	t.Helper()
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] >= s.Y[i-1] {
			t.Errorf("%s does not fall from %.4g to %.4g at x=%g", s.Name, s.Y[i-1], s.Y[i], s.X[i])
		}
	}
}

// at returns s's value at x.
func at(t *testing.T, s *metrics.Series, x float64) float64 {
	t.Helper()
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i]
		}
	}
	t.Fatalf("%s has no point at x=%g", s.Name, x)
	return 0
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
