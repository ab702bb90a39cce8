package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary: %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, want)
	}
	if s.CI95() <= 0 {
		t.Fatal("CI missing")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty: %+v", z)
	}
	one := Summarize([]float64{5})
	if one.Std != 0 || one.CI95() != 0 || one.Min != 5 || one.Max != 5 {
		t.Fatalf("single: %+v", one)
	}
}

// Property: Min <= Mean <= Max.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: summarizing a constant sample gives Std 0 and Mean = the value.
func TestConstantSampleProperty(t *testing.T) {
	f := func(v int16, n uint8) bool {
		count := int(n%20) + 1
		xs := make([]float64, count)
		for i := range xs {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Std == 0 && s.Mean == float64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI95(t *testing.T) {
	// n=4 of {2,4,4,6}: mean 4, sample std sqrt(8/3).
	mean, hw := MeanCI95([]float64{2, 4, 4, 6})
	if math.Abs(mean-4) > 1e-9 {
		t.Errorf("mean = %g, want 4", mean)
	}
	want := 1.96 * math.Sqrt(8.0/3.0) / 2
	if math.Abs(hw-want) > 1e-9 {
		t.Errorf("half-width = %g, want %g", hw, want)
	}

	if mean, hw = MeanCI95([]float64{5}); mean != 5 || hw != 0 {
		t.Errorf("singleton: mean %g hw %g, want 5 and 0", mean, hw)
	}
	if mean, hw = MeanCI95(nil); mean != 0 || hw != 0 {
		t.Errorf("empty: mean %g hw %g, want zeros", mean, hw)
	}
}
