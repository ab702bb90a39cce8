// Package viz renders experiment series as terminal charts — the paper's
// figures are bar/line charts, and dssbench can echo their shape directly in
// the terminal (-chart).
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// blocks are eighth-height bar glyphs.
var blocks = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode sparkline, scaled to
// [min,max] of the data (a flat series renders mid-height).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		idx := 4 // mid-height for flat series
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-2))
			idx++ // never render the empty glyph for a real point
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// Lines renders multiple labeled series as aligned sparklines with their
// ranges, e.g. for a Figs. 5–10-style sweep.
func Lines(w io.Writer, title string, labels []string, series [][]float64) error {
	if len(labels) != len(series) {
		return fmt.Errorf("viz: %d labels for %d series", len(labels), len(series))
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	maxLabel := 0
	for _, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
	}
	for i, s := range series {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(s) == 0 {
			lo, hi = 0, 0
		}
		if _, err := fmt.Fprintf(w, "%-*s  %s  [%.4g .. %.4g]\n",
			maxLabel, labels[i], Sparkline(s), lo, hi); err != nil {
			return err
		}
	}
	return nil
}
