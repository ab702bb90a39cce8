// External test package: the OLTP program imports workload.
package workload_test

import (
	"fmt"
	"testing"

	"dssmem/internal/machine"
	"dssmem/internal/obs"
	"dssmem/internal/oltp"
	"dssmem/internal/perfctr"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// TestConservationLaws pins the two ledgers of the memory model against each
// other on real runs: each CPU's perfctr.Counters, which the figures report,
// and the directory's global Stats, which count the same transactions from
// the protocol side. The per-region tallies, which an observer with region
// attribution on collects, must also add up to the CPU totals, and so, on
// query runs, must the operators' self counters. The runs are exact, so no
// estimate enters any law. Warm runs at 1
// and 4 processes do no I/O; a cold run of each query and machine at 4
// processes adds the disk path to the switch law; the OLTP mix under
// relation and row locks at 1, 4 and 8 processes adds the write-heavy path:
// stores, upgrades and ownership transfers.
func TestConservationLaws(t *testing.T) {
	data := tpch.Generate(0.001, 7)
	specs := []machine.Spec{
		machine.VClassSpec(16, 256),
		machine.OriginSpec(32, 256),
		machine.StarfireSpec(64, 256),
	}
	// Σ over the matrix of each law's left-hand side: a law that never saw a
	// nonzero count has not been tested.
	var exercised perfctr.Counters
	var diskReads uint64
	run := func(name string, o workload.Options) {
		spec, cold := o.Spec, o.ColdRun
		ob := obs.New(obs.Config{Regions: true, ByOperator: true})
		o.OSTimeScale, o.Obs = 256, ob
		st, err := workload.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ct perfctr.Counters
		for i := range st.Procs {
			ct.Add(&st.Procs[i].Counters)
		}
		exercised.Add(&ct)
		diskReads += st.DiskReads
		checkLaws(t, name, spec, st, &ct, cold)
		// An OLTP run opens a span only around its index probes, so most of
		// its work lies outside every operator; a query runs inside one.
		if o.Program == nil {
			var self perfctr.Counters
			for _, op := range ob.Operators() {
				self.Add(&op.Self)
			}
			if self != ct {
				t.Errorf("%s: operator self counters != CPU totals:\n%+v\n%+v", name, self, ct)
			}
		}
	}
	for _, spec := range specs {
		for _, q := range []tpch.QueryID{tpch.Q6, tpch.Q21, tpch.Q12} {
			for _, procs := range []int{1, 4} {
				run(fmt.Sprintf("%s/%v/p%d", spec.Name, q, procs),
					workload.Options{Spec: spec, Data: data, Query: q, Processes: procs})
			}
			run(fmt.Sprintf("%s/%v/p4/cold", spec.Name, q),
				workload.Options{Spec: spec, Data: data, Query: q, Processes: 4, ColdRun: true})
		}
		for _, gran := range []oltp.Granularity{oltp.RelationLocks, oltp.RowLocks} {
			cfg := oltp.DefaultConfig()
			cfg.Transactions, cfg.Granularity = 40, gran
			for _, procs := range []int{1, 4, 8} {
				run(fmt.Sprintf("%s/oltp-%v/p%d", spec.Name, gran, procs),
					workload.Options{Spec: spec, Processes: procs, Program: oltp.NewProgram(cfg)})
			}
		}
	}
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"coherence misses", exercised.CoherenceMisses},
		{"upgrades", exercised.Upgrades},
		{"dirty 3-hop misses", exercised.Dirty3HopMisses},
		{"lock back-offs", exercised.LockBackoffs},
		{"L2 misses", exercised.L2DMisses},
		{"disk reads", diskReads},
	} {
		if c.n == 0 {
			t.Errorf("no run counted any %s", c.name)
		}
	}
}

// checkLaws asserts every conservation law on one run; ct is the sum of its
// CPUs' counter files, and cold says the run started with an empty pool.
func checkLaws(t *testing.T, run string, spec machine.Spec, st *workload.Stats, ct *perfctr.Counters, cold bool) {
	t.Helper()
	d := st.Dir
	law := func(name string, lhs, rhs uint64) {
		if lhs != rhs {
			t.Errorf("%s: %s: %d != %d", run, name, lhs, rhs)
		}
	}
	outerMisses := ct.L1DMisses
	if spec.L2 != nil {
		outerMisses = ct.L2DMisses
	}
	sum := func(a [perfctr.NumRegions]uint64) (n uint64) {
		for _, v := range a {
			n += v
		}
		return n
	}
	law("cold+capacity+coherence = directory reads+writes",
		ct.ColdMisses+ct.CapacityMisses+ct.CoherenceMisses, d.Reads+d.Writes)
	law("directory reads+writes = outer-level misses", d.Reads+d.Writes, outerMisses)
	law("memory requests = directory reads+writes+upgrades", ct.MemRequests, d.Reads+d.Writes+d.Upgrades)
	law("memory latency = directory total latency", ct.MemLatencyCycles, d.TotalLatency)
	law("upgrades = directory upgrades (none fell back to a write miss)", ct.Upgrades, d.Upgrades)
	law("dirty 3-hop misses = dirty interventions", ct.Dirty3HopMisses, d.DirtyInterventions)
	law("voluntary switches = lock back-offs + disk reads", ct.VolCtxSwitches, ct.LockBackoffs+st.DiskReads)
	if !cold {
		law("disk reads = 0 (warm runs do no I/O)", st.DiskReads, 0)
	}
	law("region accesses = loads+stores", sum(st.Regions.Accesses), ct.Loads+ct.Stores)
	law("region L1 misses = L1 misses", sum(st.Regions.L1Misses), ct.L1DMisses)
	law("region L2 misses = L2 misses", sum(st.Regions.L2Misses), ct.L2DMisses)
}
