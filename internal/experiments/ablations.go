package experiments

import (
	"fmt"
	"io"
	"sort"

	"dssmem/internal/core"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Ablations isolate the design choices DESIGN.md §6 calls out. Each compares
// the default machine against a variant with one mechanism changed and
// reports the metric that mechanism is supposed to move.

// compare measures base and alt on every query at procs processes as one
// grid and appends to r, for each query, one row per variant: the query, the
// variant's label, then cols of its measurement.
func (e *Env) compare(r *Result, base, alt variant, labels [2]string, procs int, cols func(core.Measurement) []string) (*Result, error) {
	g, err := e.measureGrid([]variant{base, alt}, tpch.AllQueries, []int{procs})
	if err != nil {
		return nil, err
	}
	for _, q := range tpch.AllQueries {
		for v, label := range labels {
			r.Rows = append(r.Rows, append([]string{q.String(), label}, cols(g.of(v, q)[0])...))
		}
	}
	return r, nil
}

// AblationMigratory turns the V-Class migratory enhancement off. The paper
// credits it with cheap lock hand-offs (one intervention instead of an
// intervention plus an upgrade).
func AblationMigratory(e *Env) (*Result, error) {
	off := e.VClass()
	off.Protocol.Migratory = false
	return e.compare(&Result{
		ID:      "ablation-migratory",
		Title:   "V-Class migratory enhancement on/off (8 processes)",
		Headers: []string{"query", "variant", "thread cyc", "mem latency", "dirty-3hop/M", "vol/M"},
	}, plain(e.VClass()), variant{"vclass-nomigratory", workload.Options{Spec: off}}, [2]string{"migratory", "plain MESI"}, 8,
		func(m core.Measurement) []string {
			return []string{fm(m.ThreadCycles), f1(m.MemLatencyCycles), f1(m.Dirty3HopPerM), f1(m.VolPerM)}
		})
}

// AblationSpeculation turns the Origin's speculative memory reply off: clean
// interventions then cost a full 3-hop trip.
func AblationSpeculation(e *Env) (*Result, error) {
	off := e.Origin()
	off.Protocol.Speculative = false
	return e.compare(&Result{
		ID:      "ablation-speculation",
		Title:   "Origin speculative reply on/off (8 processes)",
		Headers: []string{"query", "variant", "thread cyc", "mem latency"},
		Notes:   []string{"expect: latency rises without speculation, most for read-shared scans"},
	}, plain(e.Origin()), variant{"origin-nospec", workload.Options{Spec: off}}, [2]string{"speculative", "no speculation"}, 8,
		func(m core.Measurement) []string { return []string{fm(m.ThreadCycles), f1(m.MemLatencyCycles)} })
}

// AblationL2Line shrinks the Origin L2 line from 128 B to 32 B. The paper
// attributes much of the L2's benefit on index queries to the longer lines.
func AblationL2Line(e *Env) (*Result, error) {
	short := e.Origin()
	l2 := *short.L2
	l2.LineSize = 32
	l2.Name = "R10K-L2-32B"
	short.L2 = &l2
	return e.compare(&Result{
		ID:      "ablation-l2line",
		Title:   "Origin L2 line size 128B vs 32B (1 process)",
		Headers: []string{"query", "variant", "L2 misses", "L2/M instr", "thread cyc"},
		Notes:   []string{"paper: longer lines cut misses for both query types; the larger capacity matters more for the index query"},
	}, plain(e.Origin()), variant{"origin-l2line32", workload.Options{Spec: short}}, [2]string{"128B lines", "32B lines"}, 1,
		func(m core.Measurement) []string {
			return []string{fk(m.L2Misses), f0(m.L2MissesPerM), fm(m.ThreadCycles)}
		})
}

// AblationBackoff compares the PostgreSQL select() back-off against pure
// spinning (a huge spin limit), the trade-off §4.2.4 of the paper discusses.
func AblationBackoff(e *Env) (*Result, error) {
	r := &Result{
		ID:      "ablation-backoff",
		Title:   "select() back-off vs pure spinning, V-Class, Q21, 8 processes",
		Headers: []string{"variant", "thread cyc", "wall s", "vol/M", "spins/M"},
	}
	spec := e.VClass()
	g, err := e.measureGrid([]variant{plain(spec), {"vclass-spinonly", workload.Options{Spec: spec, SpinLimit: 1 << 30}}}, []tpch.QueryID{tpch.Q21}, []int{8})
	if err != nil {
		return nil, err
	}
	a, b := g.of(0, tpch.Q21)[0], g.of(1, tpch.Q21)[0]
	r.Rows = append(r.Rows,
		[]string{"select() backoff", fm(a.ThreadCycles), fmt.Sprintf("%.4f", a.WallSeconds), f1(a.VolPerM), f1(a.SpinsPerM)},
		[]string{"pure spinning", fm(b.ThreadCycles), fmt.Sprintf("%.4f", b.WallSeconds), f1(b.VolPerM), f1(b.SpinsPerM)},
	)
	r.Notes = append(r.Notes, "paper: backoff is 'perfect for uniprocessors ... not so efficient in multiprocessors' — it trades spin cycles for wall-clock response time")
	return r, nil
}

// AblationHeaders pads buffer descriptors to a full line, removing the false
// sharing of neighbouring headers (era PostgreSQL packed them).
func AblationHeaders(e *Env) (*Result, error) {
	spec := e.Origin()
	return e.compare(&Result{
		ID:      "ablation-headers",
		Title:   "Buffer descriptor padding: 32B packed vs 128B line-private (Origin, 8 processes)",
		Headers: []string{"query", "variant", "L2/M instr", "coherence share", "thread cyc"},
	}, plain(spec), variant{"origin-paddedhdrs", workload.Options{Spec: spec, BufHeaderBytes: 128}}, [2]string{"packed 32B", "padded 128B"}, 8,
		func(m core.Measurement) []string {
			return []string{f0(m.L2MissesPerM), pct(m.CoherenceFraction), fm(m.ThreadCycles)}
		})
}

// AblationHints disables hint-bit stores, isolating the shared record-page
// writes from the rest of the communication.
func AblationHints(e *Env) (*Result, error) {
	spec := e.Origin()
	return e.compare(&Result{
		ID:      "ablation-hints",
		Title:   "Hint-bit stores on/off (Origin, 8 processes)",
		Headers: []string{"query", "variant", "dirty-3hop/M", "coherence share", "mem latency"},
	}, plain(spec), variant{"origin-nohints", workload.Options{Spec: spec, HintBitFraction: -1}}, [2]string{"hint bits", "no hint bits"}, 8,
		func(m core.Measurement) []string {
			return []string{f1(m.Dirty3HopPerM), pct(m.CoherenceFraction), f1(m.MemLatencyCycles)}
		})
}

// AblationPlacement interleaves the Origin's shared pages across all nodes
// instead of concentrating them, undoing the hot-spot the paper observed.
func AblationPlacement(e *Env) (*Result, error) {
	conc := e.Origin()
	inter := e.Origin()
	inter.Placement = machine.PlaceInterleaved
	r := &Result{
		ID:      "ablation-placement",
		Title:   "Origin shared-memory placement: concentrated vs interleaved (Q6, sweep)",
		Headers: append([]string{"variant"}, procHeaders()...),
	}
	g, err := e.measureGrid([]variant{plain(conc), {"origin-interleaved", workload.Options{Spec: inter}}}, []tpch.QueryID{tpch.Q6}, ProcCounts)
	if err != nil {
		return nil, err
	}
	a, b := g.of(0, tpch.Q6), g.of(1, tpch.Q6)
	rowA := []string{"concentrated"}
	rowB := []string{"interleaved"}
	for i := range a {
		rowA = append(rowA, f1(a[i].MemLatencyCycles))
		rowB = append(rowB, f1(b[i].MemLatencyCycles))
	}
	r.Rows = append(r.Rows, rowA, rowB)
	r.Notes = append(r.Notes, "memory latency in cycles; the paper blames the 6-8 process steepening on requests routed to the couple of nodes holding the DBMS shared memory")
	return r, nil
}

// Ablations maps names to runners.
var Ablations = map[string]func(*Env) (*Result, error){
	"backoff":     AblationBackoff,
	"coldrun":     ColdRun,
	"estate":      EState,
	"headers":     AblationHeaders,
	"hints":       AblationHints,
	"l2line":      AblationL2Line,
	"migratory":   AblationMigratory,
	"mix":         Mix,
	"oltp":        OLTP,
	"placement":   AblationPlacement,
	"platforms":   Platforms,
	"speculation": AblationSpeculation,
	"taxonomy":    Taxonomy,
}

// AblationNames returns the sorted ablation names.
func AblationNames() []string {
	names := make([]string, 0, len(Ablations))
	for n := range Ablations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunAblation executes one ablation and writes its table to w.
func RunAblation(e *Env, name string, w io.Writer) (*Result, error) {
	fn := Ablations[name]
	if fn == nil {
		return nil, fmt.Errorf("experiments: no ablation %q (have %v)", name, AblationNames())
	}
	return run(e, fn, w)
}
