package experiments

import (
	"dssmem/internal/core"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Platforms extends the paper's two-machine comparison with a third era
// platform (a Sun Starfire-style UMA SMP with a two-level hierarchy): the
// cross-platform characterization the paper's methodology is built for.
func Platforms(e *Env) (*Result, error) {
	r := &Result{
		ID:      "platforms",
		Title:   "Cross-platform characterization (1 process; extension machine included)",
		Headers: []string{"machine", "query", "thread cyc", "CPI", "L1/M", "outer/M", "mem lat"},
	}
	specs := []machine.Spec{
		e.VClass(),
		e.Origin(),
		machine.StarfireSpec(16, e.Preset.MemScale),
	}
	g, err := e.measureGrid([]variant{plain(specs[0]), plain(specs[1]), plain(specs[2])}, tpch.AllQueries, []int{1})
	if err != nil {
		return nil, err
	}
	for _, q := range tpch.AllQueries {
		for j, spec := range specs {
			m := g.of(j, q)[0]
			outer := m.L2MissesPerM
			if outer == 0 {
				outer = m.L1MissesPerM
			}
			r.Rows = append(r.Rows, []string{
				spec.Name, q.String(), fm(m.ThreadCycles), f3(m.CPI),
				f0(m.L1MissesPerM), f0(outer), f1(m.MemLatencyCycles),
			})
		}
	}
	r.Notes = append(r.Notes,
		"the Starfire pairs UMA latencies with an Origin-style two-level hierarchy — it inherits the Origin's cache behaviour and the V-Class's flat memory, the quadrant neither studied machine occupies")
	return r, nil
}

// EState isolates the MESI Exclusive state by degrading the V-Class protocol
// to MSI. The paper's Fig. 9 explanation rests on E: the second reader's
// intervention disappears under MSI (at the cost of upgrades on every
// write-after-read).
func EState(e *Env) (*Result, error) {
	mesi := e.VClass()
	msi := e.VClass()
	msi.Protocol.NoExclusive = true
	msi.Protocol.Migratory = false // migratory rides on owned states
	r := &Result{
		ID:      "estate",
		Title:   "MESI vs MSI on the V-Class: the E state behind Fig. 9 (Q6)",
		Headers: append([]string{"variant"}, procHeaders()...),
	}
	g, err := e.measureGrid([]variant{plain(mesi), {"vclass-msi", workload.Options{Spec: msi}}}, []tpch.QueryID{tpch.Q6}, ProcCounts)
	if err != nil {
		return nil, err
	}
	a, b := g.series(0, tpch.Q6), g.series(1, tpch.Q6)
	rowA := []string{"MESI (E state)"}
	rowB := []string{"MSI (no E)"}
	for i := range a.Points {
		rowA = append(rowA, f1(a.Points[i].MemLatencyCycles))
		rowB = append(rowB, f1(b.Points[i].MemLatencyCycles))
	}
	r.Rows = append(r.Rows, rowA, rowB)
	r.Series = append(r.Series, a, b)
	r.chart = core.MetricMemLatency
	r.Notes = append(r.Notes,
		"memory latency in cycles: the 1->2 process jump (second readers paying interventions on E lines) flattens under MSI",
		"MSI's cost appears elsewhere: every private write-after-read becomes an upgrade transaction")
	return r, nil
}
