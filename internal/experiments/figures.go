package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dssmem/internal/core"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/viz"
)

// Result is one regenerated figure (or ablation): a titled table plus the
// underlying series and shape-check notes.
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Series  []core.Series
	Notes   []string

	chart func(core.Measurement) float64 // the metric WriteChart plots; set where Series are built
}

// WriteChart renders the result's series (if any) as terminal sparklines.
func (r *Result) WriteChart(w io.Writer) error {
	if len(r.Series) == 0 {
		return nil
	}
	labels := make([]string, len(r.Series))
	series := make([][]float64, len(r.Series))
	for i, s := range r.Series {
		labels[i] = s.Query
		vals := make([]float64, len(s.Points))
		for j, p := range s.Points {
			vals[j] = r.chart(p)
		}
		series[i] = vals
	}
	return viz.Lines(w, "  ["+r.ID+" series]", labels, series)
}

// WriteTo renders the result as an aligned text table.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Headers)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func fm(v float64) string  { return fmt.Sprintf("%.3gM", v/1e6) }
func fk(v float64) string  { return fmt.Sprintf("%.3gK", v/1e3) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Variants of the bothEnds grid.
const (
	hpv = iota
	sgi
)

// bothEnds measures all queries on the V-Class (hpv) and the Origin (sgi) at
// 1 and 8 processes as one batch (the shared substrate of Figs. 2–4).
func (e *Env) bothEnds() (*grid, error) {
	return e.measureGrid([]variant{plain(e.VClass()), plain(e.Origin())}, tpch.AllQueries, []int{1, 8})
}

// Fig2 regenerates Figure 2: thread time in cycles for Q6, Q21, Q12 on both
// machines, at 1 process (a) and 8 processes (b).
func Fig2(e *Env) (*Result, error) {
	g, err := e.bothEnds()
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "fig2",
		Title:   "Thread time in cycles (a: 1 process, b: 8 processes)",
		Headers: []string{"query", "HPV 1p", "SGI 1p", "HPV 8p", "SGI 8p", "SGI/HPV 1p", "SGI/HPV 8p"},
	}
	for _, q := range tpch.AllQueries {
		h, s := g.of(hpv, q), g.of(sgi, q)
		r.Rows = append(r.Rows, []string{
			q.String(),
			fm(h[0].ThreadCycles), fm(s[0].ThreadCycles),
			fm(h[1].ThreadCycles), fm(s[1].ThreadCycles),
			f3(s[0].ThreadCycles / h[0].ThreadCycles),
			f3(s[1].ThreadCycles / h[1].ThreadCycles),
		})
	}
	h6, s6 := g.of(hpv, tpch.Q6), g.of(sgi, tpch.Q6)
	r.Notes = append(r.Notes,
		fmt.Sprintf("paper: 1-process cycle counts nearly equal; measured Q6 SGI/HPV = %.2f", s6[0].ThreadCycles/h6[0].ThreadCycles),
		fmt.Sprintf("paper: at 8 processes SGI grows more; measured Q6 growth SGI %.3fx vs HPV %.3fx",
			s6[1].ThreadCycles/s6[0].ThreadCycles*float64(s6[0].Instructions)/float64(s6[1].Instructions),
			h6[1].ThreadCycles/h6[0].ThreadCycles*float64(h6[0].Instructions)/float64(h6[1].Instructions)))
	return r, nil
}

// Fig3 regenerates Figure 3: CPI at 1 and 8 processes.
func Fig3(e *Env) (*Result, error) {
	g, err := e.bothEnds()
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "fig3",
		Title:   "Cycles per instruction (a: 1 process, b: 8 processes)",
		Headers: []string{"query", "HPV 1p", "SGI 1p", "HPV 8p", "SGI 8p"},
	}
	for _, q := range tpch.AllQueries {
		h, s := g.of(hpv, q), g.of(sgi, q)
		r.Rows = append(r.Rows, []string{
			q.String(), f3(h[0].CPI), f3(s[0].CPI), f3(h[1].CPI), f3(s[1].CPI),
		})
	}
	h6, s6 := g.of(hpv, tpch.Q6), g.of(sgi, tpch.Q6)
	r.Notes = append(r.Notes,
		"paper: CPI in 1.3..1.6; CPI rises with processes, more on the Origin",
		fmt.Sprintf("measured Q6 CPI growth: HPV +%.1f%%, SGI +%.1f%%",
			100*(h6[1].CPI/h6[0].CPI-1), 100*(s6[1].CPI/s6[0].CPI-1)))
	return r, nil
}

// Fig4 regenerates Figure 4: data-cache misses and miss rates — the HPV
// D-cache vs the Origin's L1 and L2 — at 1 and 8 processes.
func Fig4(e *Env) (*Result, error) {
	g, err := e.bothEnds()
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "fig4",
		Title:   "Data cache misses (absolute) and miss rate per reference",
		Headers: []string{"query", "procs", "HPV Dcache", "SGI L1", "SGI L2", "SGI-L1/HPV", "HPV rate"},
	}
	for _, q := range tpch.AllQueries {
		for i, procs := range []int{1, 8} {
			h, s := g.of(hpv, q)[i], g.of(sgi, q)[i]
			r.Rows = append(r.Rows, []string{
				q.String(), fmt.Sprint(procs),
				fk(h.L1Misses), fk(s.L1Misses), fk(s.L2Misses),
				f1(s.L1Misses / h.L1Misses), pct(h.L1MissRate),
			})
		}
	}
	h21, s21 := g.of(hpv, tpch.Q21)[0], g.of(sgi, tpch.Q21)[0]
	h6, s6 := g.of(hpv, tpch.Q6)[0], g.of(sgi, tpch.Q6)[0]
	r.Notes = append(r.Notes,
		fmt.Sprintf("paper: Q6 SGI-L1 ≈ 2x HPV misses; measured %.1fx", s6.L1Misses/h6.L1Misses),
		fmt.Sprintf("paper: Q21 SGI-L1/HPV ratio far larger than Q6's; measured Q21 %.1fx vs Q6 %.1fx",
			s21.L1Misses/h21.L1Misses, s6.L1Misses/h6.L1Misses),
		fmt.Sprintf("paper: Q21 SGI-L2 misses far below HPV misses; measured %.3gK vs %.3gK",
			s21.L2Misses/1e3, h21.L1Misses/1e3))
	return r, nil
}

// querySweeps sweeps every query over ProcCounts on spec as one batch (the
// shared substrate of Figs. 5–10).
func (e *Env) querySweeps(spec machine.Spec) (*grid, error) {
	return e.measureGrid([]variant{plain(spec)}, tpch.AllQueries, ProcCounts)
}

// sweepFigure builds a per-query process sweep on one machine, tabulating
// and plotting metric.
func (e *Env) sweepFigure(id, title string, spec machine.Spec, metric func(core.Measurement) float64, format func(float64) string) (*Result, error) {
	g, err := e.querySweeps(spec)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      id,
		Title:   title,
		Headers: append([]string{"query"}, procHeaders()...),
		chart:   metric,
	}
	for _, q := range tpch.AllQueries {
		s := g.series(0, q)
		row := []string{s.Query}
		for _, p := range s.Points {
			row = append(row, format(metric(p)))
		}
		r.Rows = append(r.Rows, row)
		r.Series = append(r.Series, s)
	}
	return r, nil
}

func procHeaders() []string {
	h := make([]string, len(ProcCounts))
	for i, n := range ProcCounts {
		h[i] = fmt.Sprintf("%dproc", n)
	}
	return h
}

// Fig5 regenerates Figure 5: Origin thread time (cycles per 1M instructions)
// vs number of query processes.
func Fig5(e *Env) (*Result, error) {
	r, err := e.sweepFigure("fig5", "SGI Origin 2000 thread time (cycles/1M instr)", e.Origin(), core.MetricCyclesPerM, fm)
	if err != nil {
		return nil, err
	}
	for _, s := range r.Series {
		r.Notes = append(r.Notes, fmt.Sprintf("%s growth 1->8 procs: %.3fx (paper: clear increase, larger at 6-8)",
			s.Query, s.Growth(core.MetricCyclesPerM)))
	}
	return r, nil
}

// Fig6 regenerates Figure 6: Origin L2 data-cache misses per 1M instructions.
func Fig6(e *Env) (*Result, error) {
	r, err := e.sweepFigure("fig6", "SGI Origin 2000 L2 data cache misses per 1M instr", e.Origin(), core.MetricL2PerM, f0)
	if err != nil {
		return nil, err
	}
	var q6, q21 core.Series
	for _, s := range r.Series {
		switch s.Query {
		case "Q6":
			q6 = s
		case "Q21":
			q21 = s
		}
	}
	if len(q6.Points) > 0 && len(q21.Points) > 0 {
		r.Notes = append(r.Notes,
			fmt.Sprintf("paper: Q21's L2 misses/1M instr well below Q6/Q12; measured Q21 %.0f vs Q6 %.0f at 1 proc",
				q21.Points[0].L2MissesPerM, q6.Points[0].L2MissesPerM),
			fmt.Sprintf("paper: communication becomes the major L2-miss component for Q21; measured coherence share 1p %.1f%% -> 8p %.1f%%",
				100*q21.Points[0].CoherenceFraction, 100*q21.Points[len(q21.Points)-1].CoherenceFraction))
	}
	return r, nil
}

// Fig7 regenerates Figure 7: V-Class thread time per 1M instructions.
func Fig7(e *Env) (*Result, error) {
	r, err := e.sweepFigure("fig7", "HP V-Class thread time (cycles/1M instr)", e.VClass(), core.MetricCyclesPerM, fm)
	if err != nil {
		return nil, err
	}
	for _, s := range r.Series {
		if two, four := s.At(2), s.At(4); two != nil && four != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: 2->4 process change %.2f%% (paper: thread time even *decreases* from 2 to 4)",
				s.Query, 100*(four.CyclesPerMInstr/two.CyclesPerMInstr-1)))
		}
	}
	return r, nil
}

// Fig8 regenerates Figure 8: V-Class D-cache misses per 1M instructions.
func Fig8(e *Env) (*Result, error) {
	r, err := e.sweepFigure("fig8", "HP V-Class Dcache misses per 1M instr", e.VClass(), core.MetricL1PerM, f0)
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, "paper: moderate increase with processes; cold+capacity stay the major component")
	for _, s := range r.Series {
		last := s.Points[len(s.Points)-1]
		r.Notes = append(r.Notes, fmt.Sprintf("%s coherence share at 8 procs: %.1f%%", s.Query, 100*last.CoherenceFraction))
	}
	return r, nil
}

// Fig9 regenerates Figure 9: V-Class memory latency vs process count.
func Fig9(e *Env) (*Result, error) {
	r, err := e.sweepFigure("fig9", "HP V-Class memory latency (cycles; microseconds in series)", e.VClass(), core.MetricMemLatency, f1)
	if err != nil {
		return nil, err
	}
	for _, s := range r.Series {
		one, two, four := s.At(1), s.At(2), s.At(4)
		if one != nil && two != nil && four != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: 1p %.1f -> 2p %.1f -> 4p %.1f cycles (paper: big increase 1->2, decrease 2->4 from the migratory/E-state protocol)",
				s.Query, one.MemLatencyCycles, two.MemLatencyCycles, four.MemLatencyCycles))
		}
	}
	return r, nil
}

// Fig10 regenerates Figure 10: voluntary and involuntary context switches per
// 1M instructions on the V-Class.
func Fig10(e *Env) (*Result, error) {
	g, err := e.querySweeps(e.VClass())
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "fig10",
		Title:   "HP V-Class context switches per 1M instr (voluntary/involuntary)",
		Headers: append([]string{"query", "kind"}, procHeaders()...),
		chart:   core.MetricVolPerM,
	}
	for _, q := range tpch.AllQueries {
		s := g.series(0, q)
		r.Series = append(r.Series, s)
		vol := []string{s.Query, "voluntary"}
		inv := []string{s.Query, "involuntary"}
		for _, p := range s.Points {
			vol = append(vol, fmt.Sprintf("%.2f", p.VolPerM))
			inv = append(inv, fmt.Sprintf("%.2f", p.InvolPerM))
		}
		r.Rows = append(r.Rows, vol, inv)
		last := s.Points[len(s.Points)-1]
		r.Notes = append(r.Notes, fmt.Sprintf("%s at 8 procs: voluntary %.2f vs involuntary %.2f per 1M instr (paper: voluntary dominate beyond 2 procs, growing almost linearly)",
			s.Query, last.VolPerM, last.InvolPerM))
	}
	r.Notes = append(r.Notes, "divergence: the paper found switch rates roughly independent of query type; in this model voluntary switches track buffer-pin lock pressure, which is highest for Q21")
	return r, nil
}

// Figures maps figure numbers to their runners.
var Figures = map[int]func(*Env) (*Result, error){
	2: Fig2, 3: Fig3, 4: Fig4, 5: Fig5,
	6: Fig6, 7: Fig7, 8: Fig8, 9: Fig9, 10: Fig10,
}

// FigureIDs returns the available figure numbers in order.
func FigureIDs() []int {
	ids := make([]int, 0, len(Figures))
	for id := range Figures {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// RunFigure executes one figure and writes its table to w.
func RunFigure(e *Env, id int, w io.Writer) (*Result, error) {
	fn := Figures[id]
	if fn == nil {
		return nil, fmt.Errorf("experiments: no figure %d (have 2..10)", id)
	}
	return run(e, fn, w)
}

// run executes one figure or ablation and, when w is non-nil, writes its
// table to w.
func run(e *Env, fn func(*Env) (*Result, error), w io.Writer) (*Result, error) {
	r, err := fn(e)
	if err != nil {
		return nil, err
	}
	if w != nil {
		if _, err := r.WriteTo(w); err != nil {
			return nil, err
		}
	}
	return r, nil
}
