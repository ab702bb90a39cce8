package experiments

import (
	"fmt"

	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// ColdRun contrasts the first of the paper's four trials (cold buffer pool:
// every page touch pays a disk read and a voluntary context switch) with the
// warm steady state the averaged figures reflect. It explains why the paper
// ran each configuration four times before averaging.
func ColdRun(e *Env) (*Result, error) {
	spec := e.VClass()
	g, err := e.measureGrid([]variant{plain(spec), {"vclass-cold", workload.Options{Spec: spec, ColdRun: true}}}, tpch.AllQueries, []int{1})
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:      "coldrun",
		Title:   "Cold vs warm buffer pool (V-Class, 1 process)",
		Headers: []string{"query", "variant", "wall s", "thread cyc", "vol switches", "disk reads"},
		Notes:   []string{"cold runs are dominated by I/O waits (every page's first touch blocks), inflating wall time and voluntary switches while thread time barely moves — the behaviour the paper's 4-trial averaging washes out"},
	}
	for _, q := range tpch.AllQueries {
		warm, cold := g.of(0, q)[0], g.of(1, q)[0]
		// Every voluntary switch is a lock back-off or a disk read (a law
		// TestConservationLaws checks), so the switches less the back-offs
		// are the cold run's disk reads.
		vol := cold.VolPerM * cold.Instructions / 1e6
		r.Rows = append(r.Rows,
			[]string{q.String(), "cold (trial 1)", fmt.Sprintf("%.4f", cold.WallSeconds), fm(cold.ThreadCycles), f0(vol), f0(vol - cold.LockBackoffs)},
			[]string{q.String(), "warm (steady state)", fmt.Sprintf("%.4f", warm.WallSeconds), fm(warm.ThreadCycles), f0(warm.VolPerM * warm.Instructions / 1e6), "0"},
		)
	}
	return r, nil
}
