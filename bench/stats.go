package main

import "sort"

// quantiles returns the first quartile, median and third quartile of xs by
// the exclusive method — the one Python's statistics.quantiles(xs, n=4)
// uses, so a spread computed here matches what the driver computes. With
// fewer than two values all three are the single value (or 0 for none).
func quantiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quantiles(xs)
	return m
}
