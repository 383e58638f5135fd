// Package metrics provides the program's counter blocks and their one read
// type (sharded.go), and the small statistics and table-formatting helpers
// the experiment harnesses share: means, percentiles, and fixed-width series
// printers that emit the rows of the paper's tables and figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) with linear
// interpolation between adjacent ranks (0 for empty input).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Series is one plotted line: y values indexed by x.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders experiment output with one row per x value and one column
// per series — the textual equivalent of a paper figure.
type Table struct {
	Title  string
	XLabel string
	series []*Series
}

// NewTable creates a table holding series.
func NewTable(title, xlabel string, series ...*Series) *Table {
	return &Table{Title: title, XLabel: xlabel, series: series}
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	cols := []string{t.XLabel}
	for _, s := range t.series {
		cols = append(cols, s.Name)
	}
	fmt.Fprintf(w, "%s\n", strings.Join(pad(cols), "  "))
	// Collect the union of x values in order of first appearance.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range t.series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%.4g", x)}
		for _, s := range t.series {
			v, ok := lookup(s, x)
			if ok {
				row = append(row, fmt.Sprintf("%.4g", v))
			} else {
				row = append(row, "-")
			}
		}
		fmt.Fprintf(w, "%s\n", strings.Join(pad(row), "  "))
	}
}

func lookup(s *Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

func pad(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprintf("%-14s", c)
	}
	return out
}
