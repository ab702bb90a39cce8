// Package stats provides the summary statistics behind the sampling
// estimator's error bars: a sample's mean, standard deviation and 95%
// confidence half-width.
package stats

import "math"

// Summary describes a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64 // sample standard deviation
	Min  float64
	Max  float64
}

// Summarize computes a Summary over xs (zero value for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CI95 returns the 95% confidence half-width under a normal approximation.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// MeanCI95 returns the sample mean and the half-width of its 95% confidence
// interval under a normal approximation — the error bars of a sampled run's
// per-window estimates. The half-width is 0 for fewer than two samples.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	s := Summarize(xs)
	return s.Mean, s.CI95()
}
