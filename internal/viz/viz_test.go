package viz

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparklineBasics(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if utf8.RuneCountInString(s) != 4 {
		t.Fatalf("length: %q", s)
	}
	runes := []rune(s)
	if runes[0] >= runes[3] {
		t.Fatalf("monotone data should render ascending glyphs: %q", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r == ' ' {
			t.Fatal("flat series rendered empty glyphs")
		}
	}
}

// Property: sparkline length equals input length and never contains spaces.
func TestSparklineProperty(t *testing.T) {
	f := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Sparkline(xs)
		if utf8.RuneCountInString(s) != len(xs) {
			return false
		}
		return !strings.ContainsRune(s, ' ')
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLines(t *testing.T) {
	var buf bytes.Buffer
	err := Lines(&buf, "sweep", []string{"Q6", "Q21"}, [][]float64{
		{1, 2, 3}, {3, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Q6") || !strings.Contains(out, "[1 .. 3]") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestLinesMismatch(t *testing.T) {
	if err := Lines(&bytes.Buffer{}, "", []string{"a"}, nil); err == nil {
		t.Fatal("mismatched labels accepted")
	}
}
