package workload

import (
	"math"
	"strings"
	"testing"

	"dssmem/internal/machine"
	"dssmem/internal/tpch"
)

var testData = tpch.Generate(0.002, 7)

func opts(spec machine.Spec, q tpch.QueryID, n int) Options {
	return Options{Spec: spec, Data: testData, Query: q, Processes: n, OSTimeScale: 256}
}

func TestRunValidatesAnswers(t *testing.T) {
	st, err := Run(opts(machine.VClassSpec(16, 256), tpch.Q6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.MachineName != "HP V-Class" || st.Processes != 1 {
		t.Fatalf("stats header: %+v", st)
	}
	c := st.MeanCounters()
	if c.Instructions == 0 || c.L1DMisses == 0 {
		t.Fatalf("counters empty: %+v", c)
	}
	if c.CPI() < 1.0 || c.CPI() > 3.0 {
		t.Fatalf("CPI out of band: %v", c.CPI())
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if _, err := Run(Options{Spec: machine.VClassSpec(4, 256), Data: testData, Query: tpch.Q6, Processes: 0}); err == nil {
		t.Fatal("0 processes accepted")
	}
	if _, err := Run(Options{Spec: machine.VClassSpec(4, 256), Data: testData, Query: tpch.Q6, Processes: 9}); err == nil ||
		!strings.Contains(err.Error(), "exceed") {
		t.Fatalf("too many processes accepted: %v", err)
	}
	if _, err := Run(Options{Spec: machine.VClassSpec(4, 256), Query: tpch.Q6, Processes: 1}); err == nil {
		t.Fatal("nil data accepted")
	}
}

// A degenerate custom machine is an error naming the bad field, never a
// panic or an infinite wall time (the oltp.Run half lives in internal/oltp).
func TestDegenerateSpecsAreErrors(t *testing.T) {
	cases := []struct {
		name, field string
		mutate      func(*machine.Spec)
		vclass      bool
	}{
		{"zero ways", "Assoc", func(s *machine.Spec) { s.L1.Assoc = 0 }, false},
		{"65 cpus", "CPUs", func(s *machine.Spec) { s.CPUs = 65 }, false},
		{"3-node hypercube", "MemNodes", func(s *machine.Spec) { s.MemNodes = 3 }, false},
		{"zero clock", "ClockMHz", func(s *machine.Spec) { s.ClockMHz = 0 }, true},
		// Timing fields a run would turn into a wrong CPI, not an error.
		{"negative CPI", "BaseCPI", func(s *machine.Spec) { s.BaseCPI = -1 }, false},
		{"NaN CPI", "BaseCPI", func(s *machine.Spec) { s.BaseCPI = math.NaN() }, false},
		{"zero CPI", "BaseCPI", func(s *machine.Spec) { s.BaseCPI = 0 }, false},
		{"negative read stall", "ReadStallFactor", func(s *machine.Spec) { s.ReadStallFactor = -5 }, false},
		{"NaN write stall", "WriteStallFactor", func(s *machine.Spec) { s.WriteStallFactor = math.NaN() }, false},
	}
	for _, c := range cases {
		spec := machine.OriginSpec(32, 256)
		if c.vclass {
			spec = machine.VClassSpec(16, 256)
		}
		c.mutate(&spec)
		_, err := Run(opts(spec, tpch.Q6, 1))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: workload.Run err = %v, want one naming %s", c.name, err, c.field)
		}
	}
}

func TestAllQueriesBothMachines(t *testing.T) {
	for _, q := range tpch.AllQueries {
		for _, spec := range []machine.Spec{machine.VClassSpec(16, 256), machine.OriginSpec(32, 256)} {
			st, err := Run(opts(spec, q, 2))
			if err != nil {
				t.Fatalf("%v on %s: %v", q, spec.Name, err)
			}
			if len(st.Procs) != 2 {
				t.Fatalf("proc stats: %d", len(st.Procs))
			}
			for i, p := range st.Procs {
				if p.ThreadCycles == 0 || p.WallCycles < p.ThreadCycles {
					t.Fatalf("proc %d clocks: thread=%d wall=%d", i, p.ThreadCycles, p.WallCycles)
				}
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Stats {
		st, err := Run(opts(machine.OriginSpec(32, 256), tpch.Q12, 4))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	for i := range a.Procs {
		if a.Procs[i] != b.Procs[i] {
			t.Fatalf("proc %d stats differ across identical runs", i)
		}
	}
	if a.Dir != b.Dir {
		t.Fatal("directory stats differ across identical runs")
	}
}

func TestOriginL2Populated(t *testing.T) {
	st, err := Run(opts(machine.OriginSpec(32, 256), tpch.Q6, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := st.MeanCounters()
	if c.L2DMisses == 0 || c.L2DMisses > c.L1DMisses {
		t.Fatalf("L2 misses implausible: L1=%d L2=%d", c.L1DMisses, c.L2DMisses)
	}
}

func TestMultiProcessSharesWork(t *testing.T) {
	// Each process runs the full query, so instructions per process should
	// be roughly flat in the process count (paper's setup).
	one, err := Run(opts(machine.VClassSpec(16, 256), tpch.Q6, 1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Run(opts(machine.VClassSpec(16, 256), tpch.Q6, 8))
	if err != nil {
		t.Fatal(err)
	}
	i1 := float64(one.MeanCounters().Instructions)
	i8 := float64(eight.MeanCounters().Instructions)
	if i8 < 0.8*i1 || i8 > 1.2*i1 {
		t.Fatalf("instructions per process changed too much: 1p %.3g vs 8p %.3g", i1, i8)
	}
}

func TestSessStatsPopulated(t *testing.T) {
	st, err := Run(opts(machine.VClassSpec(16, 256), tpch.Q21, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sess.Pins == 0 || st.Sess.BufMgrAcquires == 0 || st.Sess.RelationAcquires == 0 {
		t.Fatalf("session stats empty: %+v", st.Sess)
	}
}

func TestMeanHelpers(t *testing.T) {
	st := &Stats{ClockMHz: 200, Procs: []ProcStats{
		{ThreadCycles: 100, WallCycles: 200},
		{ThreadCycles: 300, WallCycles: 400},
	}}
	if st.MeanThreadCycles() != 200 {
		t.Fatalf("mean thread = %v", st.MeanThreadCycles())
	}
	if w := st.MeanWallSeconds(); w != 300/(200e6) {
		t.Fatalf("mean wall = %v", w)
	}
}

func TestSpinLimitOverride(t *testing.T) {
	base, err := Run(opts(machine.VClassSpec(16, 256), tpch.Q21, 4))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(machine.VClassSpec(16, 256), tpch.Q21, 4)
	o.SpinLimit = 1 << 30 // pure spinning: no backoffs
	spin, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if spin.MeanCounters().LockBackoffs > base.MeanCounters().LockBackoffs {
		t.Fatal("huge spin limit should not increase backoffs")
	}
}

func TestHintFractionOff(t *testing.T) {
	o := opts(machine.OriginSpec(32, 256), tpch.Q6, 2)
	o.HintBitFraction = -1
	st, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(opts(machine.OriginSpec(32, 256), tpch.Q6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanCounters().Stores >= base.MeanCounters().Stores {
		t.Fatal("disabling hint bits should remove shared-page stores")
	}
}

func TestRunTrialsVaryButAgree(t *testing.T) {
	o := opts(machine.VClassSpec(16, 256), tpch.Q21, 4)
	sts, err := RunTrials(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("trials = %d", len(sts))
	}
	// Same instructions every trial (work is deterministic)...
	i0 := sts[0].MeanCounters().Instructions
	for _, st := range sts[1:] {
		got := st.MeanCounters().Instructions
		if got < i0*95/100 || got > i0*105/100 {
			t.Fatalf("instructions vary too much: %d vs %d", got, i0)
		}
	}
	// ...but contention jitter differs across trials (the paper averaged
	// exactly this kind of run-to-run noise). Wall cycles are the most
	// jitter-sensitive metric.
	same := true
	for _, st := range sts[1:] {
		if st.Procs[0].WallCycles != sts[0].Procs[0].WallCycles {
			same = false
		}
	}
	if same {
		t.Log("warning: trials identical (contention too low to express jitter at this scale)")
	}
}

func TestRunTrialsZeroClamped(t *testing.T) {
	sts, err := RunTrials(opts(machine.VClassSpec(16, 256), tpch.Q6, 1), 0)
	if err != nil || len(sts) != 1 {
		t.Fatalf("got %d trials, err %v", len(sts), err)
	}
}

func TestMixedWorkloadValidatesEachQuery(t *testing.T) {
	o := opts(machine.VClassSpec(16, 256), tpch.Q6, 6)
	o.Program = Queries(tpch.Q6, tpch.Q21, tpch.Q12)
	st, err := Run(o) // Check validates process i's answer against qs[i%3]
	if err != nil {
		t.Fatal(err)
	}
	// Q21 processes (1 and 4) must have done far more work than Q6
	// processes (0 and 3).
	for _, i := range []int{0, 3} {
		if st.Procs[i+1].Counters.Instructions <= st.Procs[i].Counters.Instructions {
			t.Fatalf("proc %d (Q21) did no more work than proc %d (Q6): the mix lost per-query identity", i+1, i)
		}
	}
	o.Program = Queries()
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "no queries") {
		t.Fatalf("empty query list: err = %v, want one saying so", err)
	}
}

func TestColdRunPaysIO(t *testing.T) {
	warm, err := Run(opts(machine.VClassSpec(16, 256), tpch.Q6, 1))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(machine.VClassSpec(16, 256), tpch.Q6, 1)
	o.ColdRun = true
	cold, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.DiskReads == 0 || warm.DiskReads != 0 {
		t.Fatalf("disk reads: cold=%d warm=%d", cold.DiskReads, warm.DiskReads)
	}
	// Cold runs block on I/O: wall time balloons, voluntary switches appear.
	if cold.Procs[0].WallCycles <= warm.Procs[0].WallCycles {
		t.Fatal("cold run should take longer wall time")
	}
	if cold.Procs[0].Vol == 0 {
		t.Fatal("cold run produced no I/O voluntary switches")
	}
	// The answer is still right (Run validates), and thread time is close.
	ratio := float64(cold.Procs[0].ThreadCycles) / float64(warm.Procs[0].ThreadCycles)
	if ratio > 1.5 {
		t.Fatalf("thread time should not balloon with I/O: ratio %.2f", ratio)
	}
}
