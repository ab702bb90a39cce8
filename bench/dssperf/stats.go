package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the "exclusive" interpolation of
// Python's statistics.quantiles, the method the benchmark's spread check
// uses, so the quartiles printed here are the ones that check would compute.
// xs need not be sorted; it is not modified. An empty xs has quantile 0.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMean is the mean of the slowest tenth of xs (at least one sample). As
// a tail latency it moves smoothly where a high percentile jumps: the
// operations of a pass are a few distinct kinds (figure cells of different
// sizes; requests answered on the client's core or across cores), and a
// percentile that falls between two kinds' durations flips between them.
func tailMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)-max(1, len(s)/10):])
}

// median is the 0.5-quantile (the ordinary median).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail timing may be reported at.
var tailLadder = []float64{0.50, 0.90, 0.99}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, so a reported tail is never one or two
// outliers; it returns 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// summary is one metric over a run: the value reported, and the quartiles
// of its N per-pass values.
type summary struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports stat over the pooled samples of every pass (one group
// per pass), with the quartiles of its per-pass values.
func summarize(unit string, groups [][]float64, stat func([]float64) float64) summary {
	s := summary{Unit: unit, N: len(groups)}
	var pool, perGroup []float64
	for _, g := range groups {
		pool = append(pool, g...)
		perGroup = append(perGroup, stat(g))
	}
	s.Value = stat(pool)
	s.Q1, s.Q3 = quantile(perGroup, 0.25), quantile(perGroup, 0.75)
	return s
}

// singles makes one group per value.
func singles(xs []float64) [][]float64 {
	g := make([][]float64, len(xs))
	for i, x := range xs {
		g[i] = []float64{x}
	}
	return g
}

// spread estimates, as a share of the value, how far apart the quartiles of
// the value itself would lie over repeated runs: the per-pass interquartile
// distance shrunk by the median's sampling error, 1.25/√N.
func (s summary) spread() float64 {
	if s.Value == 0 || s.N == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value) * 1.25 / math.Sqrt(float64(s.N))
}
