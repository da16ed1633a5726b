package main

import (
	"math"
	"sort"
)

// summary is one metric of one run: the reported value with the spread
// of the samples it was taken from.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize reports the median of samples as the value. No samples
// gives the zero summary: the layer did no work on this workload.
func summarize(samples []float64, unit string) summary {
	if len(samples) == 0 {
		return summary{Unit: unit}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quartiles of sorted values, computed as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// that -compare sees the spread the acceptance check sees.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	m := len(sorted)
	if m == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// highPercentile is the nearest-rank p-th percentile of sorted values,
// lowered to the highest rank that still has ten values beyond it, and
// to the median when not even that has. A run with few queries so
// reports a steadier number than its slowest query.
func highPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	rank := min(int(math.Ceil(p*float64(n))), n-10)
	if rank <= n/2 {
		_, med, _ := quartiles(sorted)
		return med
	}
	return sorted[rank-1]
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	s := summarize(values, "")
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
