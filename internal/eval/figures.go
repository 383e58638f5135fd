package eval

// The evaluation's figures, each declared once: cmd/figures prints every
// row of Figures, TestFigures checks every row and BenchmarkFigures times
// every row, all at the parameters stated here.

import (
	"fmt"

	"infoslicing/internal/anonymity"
	"infoslicing/internal/metrics"
)

// Figure is one printed table of the evaluation: the series one figure
// plots, as a function of the seed.
type Figure struct {
	Name   string // unique; names the row's test and benchmark
	Fig    int    // the paper's figure number (19: this repository's extension)
	Title  string
	XLabel string
	Run    func(seed int64) ([]*metrics.Series, error)
}

// The §6 overlay and its Monte-Carlo trials per point (the paper's), and
// Fig. 17's sessions per point and relay failure probability.
const (
	anonN, anonTrials   = 10000, 1000
	churnTrials, churnP = 25, 0.2
)

// Figures is every figure, in the paper's order.
var Figures = []Figure{
	{"fig7_malicious", 7, "Fig. 7 — anonymity vs fraction of malicious nodes (N=10000, L=8, d=3)", "f",
		func(seed int64) ([]*metrics.Series, error) { return anonymity.FractionSweep(anonN, anonTrials, seed) }},
	{"fig8_split", 8, "Fig. 8 — anonymity vs split factor d (N=10000, L=8)", "d",
		func(seed int64) ([]*metrics.Series, error) { return anonymity.SplitSweep(anonN, anonTrials, seed) }},
	{"fig9_length", 9, "Fig. 9 — anonymity vs path length L (N=10000, d=3, f=0.1)", "L",
		func(seed int64) ([]*metrics.Series, error) { return anonymity.LengthSweep(anonN, anonTrials, seed) }},
	{"fig10_redundancy", 10, "Fig. 10 — anonymity vs added redundancy (d=3, L=8, f=0.1)", "R",
		func(seed int64) ([]*metrics.Series, error) { return anonymity.RedundancySweep(anonN, anonTrials, seed) }},
	{"fig11_lan", 11, "Fig. 11 — LAN per-flow throughput (Mb/s)", "L",
		func(seed int64) ([]*metrics.Series, error) { return ThroughputSweep(LAN2007(), 1<<20, seed) }},
	{"fig12_planetlab", 12, "Fig. 12 — PlanetLab per-flow throughput (Mb/s)", "L",
		func(seed int64) ([]*metrics.Series, error) { return ThroughputSweep(PlanetLab2007(), 128<<10, seed) }},
	{"fig13_scaling", 13, "Fig. 13 — LAN network throughput vs concurrent flows (100-node pool, d=3, L=5)", "flows",
		func(seed int64) ([]*metrics.Series, error) {
			return ScalingSweep([]int{1, 2, 4, 8, 16, 24}, 256<<10, seed)
		}},
	{"fig14_setup_lan", 14, "Fig. 14 — LAN graph setup time (ms)", "L",
		func(seed int64) ([]*metrics.Series, error) { return SetupSweep(LAN2007(), 3, seed) }},
	{"fig15_setup_planetlab", 15, "Fig. 15 — PlanetLab graph setup time (ms)", "L",
		func(seed int64) ([]*metrics.Series, error) { return SetupSweep(PlanetLab2007(), 3, seed) }},
	analytic(0.1),
	analytic(0.3),
	{"fig17_churn", 17, fmt.Sprintf("Fig. 17 — experimental session success vs redundancy (L=5, d=2, p=%g, %d trials)", churnP, churnTrials), "R",
		func(seed int64) ([]*metrics.Series, error) { return ChurnSweep(churnTrials, churnP, seed) }},
	{"fig19_repair", 19, "Fig. 19 (extension) — delivery under stage-collapse churn (L=3, d=2, d'=3)", "kills", RepairSweep},
}

// analytic is Fig. 16 at node failure probability p; it ignores the seed.
func analytic(p float64) Figure {
	return Figure{fmt.Sprintf("fig16_analytic_p%g", p), 16,
		fmt.Sprintf("Fig. 16 — analytic transfer success vs redundancy (L=5, d=2, p=%g)", p), "R",
		func(int64) ([]*metrics.Series, error) { return AnalyticSweep(p), nil }}
}

// Measured is Fig. 7 re-run on a simnet overlay of n nodes with per-link
// loss and relay churn, trials per point (see anonymity.MeasuredSweep);
// done, if not nil, sees each point as it finishes.
func Measured(n, trials int, loss, churn float64, done func(f float64, r anonymity.MeasuredResult)) Figure {
	return Figure{"fig7_measured", 7,
		fmt.Sprintf("Fig. 7 (measured) — anonymity vs f on a %d-node simnet (L=8, d=3, loss=%g, churn=%g)", n, loss, churn), "f",
		func(seed int64) ([]*metrics.Series, error) {
			return anonymity.MeasuredSweep(n, trials, seed, loss, churn, done)
		}}
}
