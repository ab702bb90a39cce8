package oltp

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dssmem/internal/db/dbtest"
	"dssmem/internal/db/engine"
	"dssmem/internal/machine"
	"dssmem/internal/workload"
)

func tinyCfg() Config {
	return Config{Warehouses: 2, Transactions: 30, PaymentShare: 50, Seed: 5}
}

func TestLoadShape(t *testing.T) {
	d := Load(tinyCfg())
	if d.wh.Heap.NumTuples() != 2 {
		t.Fatalf("warehouses = %d", d.wh.Heap.NumTuples())
	}
	if d.district.Heap.NumTuples() != 2*DistrictsPerWarehouse {
		t.Fatalf("districts = %d", d.district.Heap.NumTuples())
	}
	if d.customer.Heap.NumTuples() != 2*DistrictsPerWarehouse*CustomersPerDistrict {
		t.Fatalf("customers = %d", d.customer.Heap.NumTuples())
	}
	if d.stock.Heap.NumTuples() != 2*ItemsPerWarehouse {
		t.Fatalf("stock = %d", d.stock.Heap.NumTuples())
	}
}

func TestLoadRejectsZeroWarehouses(t *testing.T) {
	// Through the run lifecycle, the program's Load returns an error.
	_, err := workload.Run(workload.Options{Spec: machine.VClassSpec(4, 256), Processes: 1, Program: NewProgram(Config{})})
	if err == nil || !strings.Contains(err.Error(), "warehouse") {
		t.Errorf("program err = %v, want one naming the warehouses", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Load(Config{})
}

// A degenerate custom machine is an error naming the bad field, never a
// panic or an infinite wall time (the workload.Run half lives in
// internal/workload).
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
		_, err := Run(spec, DefaultConfig(), 1, 256)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: oltp.Run err = %v, want one naming %s", c.name, err, c.field)
		}
	}
}

// loadProbe runs a Program and records whether the run loaded its database.
type loadProbe struct {
	workload.Program
	loaded bool
}

func (p *loadProbe) Load(o workload.Options) (*engine.Database, error) {
	p.loaded = true
	return p.Program.Load(o)
}

// An OLTP run whose context is already done aborts with the cause before it
// loads its tables, as a query run does.
func TestRunContextPreCancelled(t *testing.T) {
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	probe := &loadProbe{Program: NewProgram(tinyCfg())}
	st, err := workload.RunContext(ctx, workload.Options{
		Spec: machine.OriginSpec(32, 256), Processes: 4, OSTimeScale: 256,
		Program: probe,
	})
	if st != nil {
		t.Fatalf("cancelled run returned stats for %d processes", st.Processes)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cause in the chain", err)
	}
	if probe.loaded {
		t.Fatal("the cancelled run loaded its tables")
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	d := Load(tinyCfg())
	p := &dbtest.FakeProc{}
	c := d.NewClient(d.Engine().NewSession(p, 0))
	for i := 0; i < 10; i++ {
		if err := c.Payment(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Payments != 10 || c.AppliedAmount <= 0 {
		t.Fatalf("client stats: %+v", c)
	}
	if p.Stores == 0 || p.Loads == 0 {
		t.Fatal("payment charged nothing")
	}
}

func TestNewOrderConsumesStock(t *testing.T) {
	d := Load(tinyCfg())
	c := d.NewClient(d.Engine().NewSession(&dbtest.FakeProc{}, 0))
	for i := 0; i < 10; i++ {
		if err := c.NewOrder(); err != nil {
			t.Fatal(err)
		}
	}
	if c.NewOrders != 10 {
		t.Fatalf("new orders = %d", c.NewOrders)
	}
}

func TestRunConservesMoney(t *testing.T) {
	st, err := Run(machine.VClassSpec(16, 256), tinyCfg(), 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if st.YtdTotal != st.AppliedAmount {
		t.Fatalf("conservation: %d vs %d", st.YtdTotal, st.AppliedAmount)
	}
	if st.Transactions != 4*tinyCfg().Transactions {
		t.Fatalf("transactions = %d", st.Transactions)
	}
	if st.Payments == 0 || st.NewOrders == 0 {
		t.Fatalf("mix degenerate: %+v", st)
	}
	if st.TxPerMCycle() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Stats {
		st, err := Run(machine.OriginSpec(32, 256), tinyCfg(), 2, 256)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.ThreadCycles != b.ThreadCycles || a.WallCycles != b.WallCycles || a.YtdTotal != b.YtdTotal {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRowLocksBeatRelationLocksUnderContention(t *testing.T) {
	// The paper's §2.2 bottleneck claim, measured: with 8 writers, row-level
	// locking must deliver higher throughput than relation-level locking.
	cfg := tinyCfg()
	cfg.Transactions = 40
	rel, err := Run(machine.VClassSpec(16, 256), cfg, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Granularity = RowLocks
	row, err := Run(machine.VClassSpec(16, 256), cfg, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if row.TxPerMCycle() <= rel.TxPerMCycle() {
		t.Fatalf("row locks (%.2f tx/Mcyc) should beat relation locks (%.2f tx/Mcyc)",
			row.TxPerMCycle(), rel.TxPerMCycle())
	}
	if rel.Backoffs <= row.Backoffs {
		t.Fatalf("relation locks should back off more: %d vs %d", rel.Backoffs, row.Backoffs)
	}
}

func TestOLTPSharesMoreThanDSS(t *testing.T) {
	// The contrast with the DSS workload: transactional writes make
	// communication (dirty hand-offs) a visible miss component even at small
	// scale.
	st, err := Run(machine.OriginSpec(32, 256), tinyCfg(), 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dirty3Hop == 0 {
		t.Fatal("OLTP writes produced no dirty interventions")
	}
}

func TestRunRejectsBadProcessCount(t *testing.T) {
	if _, err := Run(machine.VClassSpec(4, 256), tinyCfg(), 0, 256); err == nil {
		t.Fatal("0 processes accepted")
	}
	if _, err := Run(machine.VClassSpec(4, 256), tinyCfg(), 5, 256); err == nil {
		t.Fatal("more processes than CPUs accepted")
	}
}

func TestGranularityNames(t *testing.T) {
	if RelationLocks.String() != "relation" || RowLocks.String() != "row" {
		t.Fatal("names wrong")
	}
}
