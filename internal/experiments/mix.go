package experiments

import (
	"fmt"

	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Mix runs the heterogeneous reading of the paper's §4 ("Multiple (Diff)
// Query Execution"): all three queries running concurrently, one per process,
// and reports each query's per-process slowdown relative to running alone.
// Interference here is purely memory-system and lock-level — processes never
// share CPUs — which is exactly the channel the paper studies.
func Mix(e *Env) (*Result, error) {
	r := &Result{
		ID:      "mix",
		Title:   "Heterogeneous mix: Q6+Q21+Q12 together (6 processes, 2 per query) vs alone",
		Headers: []string{"machine", "query", "alone cyc", "mixed cyc", "slowdown"},
	}
	mix := []tpch.QueryID{tpch.Q6, tpch.Q21, tpch.Q12}
	specs := []machine.Spec{e.VClass(), e.Origin()}
	alone, err := e.measureGrid([]variant{plain(specs[0]), plain(specs[1])}, mix, []int{1})
	if err != nil {
		return nil, err
	}
	for si, spec := range specs {
		// Under a Program the query argument only labels the stats.
		st, err := e.runUncached(mix[0], 6, workload.Options{Spec: spec, Program: workload.Queries(mix...)})
		if err != nil {
			return nil, err
		}
		// Mean thread cycles per query within the mix: process i ran
		// mix[i%len(mix)].
		mixed := map[tpch.QueryID]float64{}
		counts := map[tpch.QueryID]float64{}
		for i, p := range st.Procs {
			mixed[mix[i%len(mix)]] += float64(p.ThreadCycles)
			counts[mix[i%len(mix)]]++
		}
		for _, q := range mix {
			a := alone.of(si, q)[0]
			avg := mixed[q] / counts[q]
			r.Rows = append(r.Rows, []string{
				spec.Name, q.String(),
				fm(a.ThreadCycles), fm(avg),
				fmt.Sprintf("%.3fx", avg/a.ThreadCycles),
			})
		}
	}
	r.Notes = append(r.Notes,
		"slowdown = mean thread cycles in the mix / thread cycles alone; processes never share CPUs, so all interference is memory-system and lock-level")
	return r, nil
}
