package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readResults(path string) (map[string]map[string][]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]metric)
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]metric)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m)
		}
	}
	return out, nil
}

// summary is a metric's median and quartiles over a file's runs. With one
// run the quartiles are that run's own, over its windows.
func summary(ms []metric) (q1, med, q3 float64) {
	if len(ms) == 1 {
		return ms[0].Q1, ms[0].Value, ms[0].Q3
	}
	vals := make([]float64, len(ms))
	for i, m := range ms {
		vals[i] = m.Value
	}
	return quantiles(vals)
}

// compareFiles prints, for every workload and every end-to-end metric, both
// medians, both quartile ranges, how much worse b is than a, the bound, and
// a verdict: within, worse, or unresolved when either side's own spread is
// wider than the bound, so the difference could be the noise.
func compareFiles(w io.Writer, aPath, bPath, specPath string) error {
	sb, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(sb, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %-16s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "b worse", "bound", "verdict")
	for _, wl := range names {
		for _, e := range spec.EndToEnd {
			am, bm := a[wl][e.Name], b[wl][e.Name]
			if len(am) == 0 || len(bm) == 0 {
				continue
			}
			aq1, amed, aq3 := summary(am)
			bq1, bmed, bq3 := summary(bm)
			worse := (bmed - amed) / amed
			if e.Better == "higher" {
				worse = -worse
			}
			spread := math.Max((aq3-aq1)/amed, (bq3-bq1)/bmed)
			verdict := "within"
			switch {
			case spread > e.Bound:
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-20s %-16s %12.4f %-25s %12.4f %-25s %+7.1f%% %5.0f%%  %s\n",
				wl, e.Name, amed, fmt.Sprintf("%.4f..%.4f", aq1, aq3), bmed, fmt.Sprintf("%.4f..%.4f", bq1, bq3),
				100*worse, 100*e.Bound, verdict)
		}
	}
	return nil
}
