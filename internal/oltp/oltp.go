// Package oltp implements a TPC-C-flavoured transactional companion workload
// (Payment and New-Order transactions over warehouse/district/customer/stock
// tables). The paper positions its DSS study against the OLTP
// characterizations of its related work (Keeton et al., Iyer's TPC-C trace
// analysis); this package makes that contrast measurable on the same machine
// models, and directly probes the paper's §2.2 remark that PostgreSQL's
// relation-level locking "may become a bottleneck in multiple parallel
// queries": writers take relation-level exclusive locks by default, with
// row-level locking as the ablation.
package oltp

import (
	"fmt"

	"dssmem/internal/db/catalog"
	"dssmem/internal/db/engine"
	"dssmem/internal/db/executor"
	"dssmem/internal/db/storage"
	"dssmem/internal/machine"
	"dssmem/internal/simos"
)

// Granularity selects the write-lock unit.
type Granularity int

// Lock granularities.
const (
	// RelationLocks is the era-PostgreSQL behaviour the paper describes.
	RelationLocks Granularity = iota
	// RowLocks is the finer granularity modern engines use (ablation).
	RowLocks
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	if g == RowLocks {
		return "row"
	}
	return "relation"
}

// Column layout of the OLTP tables.
const (
	WID = iota
	WYtd
)

// District columns.
const (
	DID = iota
	DYtd
	DNextOID
)

// Customer columns.
const (
	CID = iota
	CBalance
	CYtdPayment
)

// Stock columns.
const (
	SID = iota
	SQuantity
	SYtd
)

// Scale constants (per warehouse).
const (
	DistrictsPerWarehouse = 10
	CustomersPerDistrict  = 300
	ItemsPerWarehouse     = 1000
)

// Config sizes and shapes an OLTP run.
type Config struct {
	Warehouses   int
	Transactions int // per process
	Granularity  Granularity
	// PaymentShare in percent; the rest are New-Order transactions.
	PaymentShare int
	Seed         uint64
}

// DefaultConfig returns a small standard mix (TPC-C is ~43% Payment).
func DefaultConfig() Config {
	return Config{Warehouses: 4, Transactions: 200, PaymentShare: 45, Seed: 11}
}

// DB is a loaded OLTP database.
type DB struct {
	cfg      Config
	db       *engine.Database
	wh       *catalog.Relation
	district *catalog.Relation
	customer *catalog.Relation
	stock    *catalog.Relation
}

// Load builds the OLTP schema and rows.
func Load(cfg Config) *DB {
	if cfg.Warehouses <= 0 {
		panic("oltp: need at least one warehouse")
	}
	rows := cfg.Warehouses * (1 + DistrictsPerWarehouse +
		DistrictsPerWarehouse*CustomersPerDistrict + ItemsPerWarehouse)
	pages := rows/200 + 128
	db := engine.Open(engine.Config{PoolPages: pages * 2})

	d := &DB{cfg: cfg, db: db}
	d.wh = db.CreateTable("warehouse", storage.NewSchema(
		storage.Column{Name: "w_id", Width: 8},
		storage.Column{Name: "w_ytd", Width: 8},
	))
	d.district = db.CreateTable("district", storage.NewSchema(
		storage.Column{Name: "d_id", Width: 8},
		storage.Column{Name: "d_ytd", Width: 8},
		storage.Column{Name: "d_next_o_id", Width: 8},
	))
	d.customer = db.CreateTable("customer", storage.NewSchema(
		storage.Column{Name: "c_id", Width: 8},
		storage.Column{Name: "c_balance", Width: 8},
		storage.Column{Name: "c_ytd_payment", Width: 8},
	))
	d.stock = db.CreateTable("stock", storage.NewSchema(
		storage.Column{Name: "s_id", Width: 8},
		storage.Column{Name: "s_quantity", Width: 8},
		storage.Column{Name: "s_ytd", Width: 8},
	))

	for w := 0; w < cfg.Warehouses; w++ {
		d.wh.Heap.Append([]int64{int64(w), 0})
		for dd := 0; dd < DistrictsPerWarehouse; dd++ {
			d.district.Heap.Append([]int64{districtKey(w, dd), 0, 1})
			for c := 0; c < CustomersPerDistrict; c++ {
				d.customer.Heap.Append([]int64{customerKey(w, dd, c), 0, 0})
			}
		}
		for s := 0; s < ItemsPerWarehouse; s++ {
			d.stock.Heap.Append([]int64{stockKey(w, s), 100, 0})
		}
	}
	db.BuildIndex(d.wh, "warehouse_pk", WID)
	db.BuildIndex(d.district, "district_pk", DID)
	db.BuildIndex(d.customer, "customer_pk", CID)
	db.BuildIndex(d.stock, "stock_pk", SID)
	return d
}

// Engine exposes the underlying database.
func (d *DB) Engine() *engine.Database { return d.db }

func districtKey(w, dd int) int64 { return int64(w)*DistrictsPerWarehouse + int64(dd) }

func customerKey(w, dd, c int) int64 {
	return (int64(w)*DistrictsPerWarehouse+int64(dd))*CustomersPerDistrict + int64(c)
}

func stockKey(w, s int) int64 { return int64(w)*ItemsPerWarehouse + int64(s) }

// txRng is a splitmix64 stream for transaction parameters.
type txRng struct{ s uint64 }

func (r *txRng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *txRng) intn(n int) int { return int(r.next() % uint64(n)) }

// Client runs one process's transaction stream.
type Client struct {
	d   *DB
	s   *engine.Session
	ctx *executor.Context
	rng txRng
	pid int

	// Stats.
	Payments  int
	NewOrders int
	// AppliedAmount is this client's total Payment volume (for the global
	// conservation check).
	AppliedAmount int64
}

// NewClient opens a transaction client for process pid.
func (d *DB) NewClient(p engine.Proc, pid int) *Client {
	s := d.db.NewSession(p, pid)
	return &Client{
		d:   d,
		s:   s,
		ctx: executor.NewContext(s),
		rng: txRng{s: d.cfg.Seed + uint64(pid)*0x9E3779B97F4A7C15},
		pid: pid,
	}
}

// lockWrite takes the configured write lock for (rel,row).
func (c *Client) lockWrite(rel *catalog.Relation, row int64) {
	if c.d.cfg.Granularity == RowLocks {
		c.d.db.LockMgr.AcquireRowExclusive(c.s.P, c.pid, rel.ID, row)
	} else {
		c.d.db.LockMgr.AcquireExclusive(c.s.P, c.pid, rel.ID)
	}
}

func (c *Client) unlockWrite(rel *catalog.Relation, row int64) {
	if c.d.cfg.Granularity == RowLocks {
		c.d.db.LockMgr.ReleaseRowExclusive(c.s.P, c.pid, rel.ID, row)
	} else {
		c.d.db.LockMgr.ReleaseExclusive(c.s.P, c.pid, rel.ID)
	}
}

// fetchRow finds a row by primary key via the index, returning its TID.
func (c *Client) fetchRow(rel *catalog.Relation, index string, key int64) (storage.TID, bool) {
	var tid storage.TID
	found := false
	executor.IndexLookupEach(c.ctx, rel, index, key, func(t storage.TID) bool {
		tid = t
		found = true
		return false
	})
	return tid, found
}

// update rewrites one column of a locked, pinned row.
func (c *Client) update(rel *catalog.Relation, tid storage.TID, col int, delta int64) int64 {
	c.s.PinPage(int(tid.Page))
	v := rel.Heap.ReadField(c.s.Mem(), tid, col)
	v += delta
	rel.Heap.WriteField(c.s.Mem(), tid, col, v)
	c.s.P.Work(60) // heap_update bookkeeping
	c.s.UnpinPage(int(tid.Page))
	return v
}

// Payment applies a customer payment: warehouse, district and customer rows
// all take a write.
func (c *Client) Payment() error {
	w := c.rng.intn(c.d.cfg.Warehouses)
	dd := c.rng.intn(DistrictsPerWarehouse)
	cu := c.rng.intn(CustomersPerDistrict)
	amount := int64(c.rng.intn(5000) + 1)
	c.s.P.Work(4000) // parse/plan/begin

	wTID, ok := c.fetchRow(c.d.wh, "warehouse_pk", int64(w))
	if !ok {
		return fmt.Errorf("oltp: warehouse %d missing", w)
	}
	c.lockWrite(c.d.wh, int64(w))
	c.update(c.d.wh, wTID, WYtd, amount)
	c.unlockWrite(c.d.wh, int64(w))

	dKey := districtKey(w, dd)
	dTID, ok := c.fetchRow(c.d.district, "district_pk", dKey)
	if !ok {
		return fmt.Errorf("oltp: district %d missing", dKey)
	}
	c.lockWrite(c.d.district, dKey)
	c.update(c.d.district, dTID, DYtd, amount)
	c.unlockWrite(c.d.district, dKey)

	cKey := customerKey(w, dd, cu)
	cTID, ok := c.fetchRow(c.d.customer, "customer_pk", cKey)
	if !ok {
		return fmt.Errorf("oltp: customer %d missing", cKey)
	}
	c.lockWrite(c.d.customer, cKey)
	c.update(c.d.customer, cTID, CBalance, -amount)
	c.update(c.d.customer, cTID, CYtdPayment, amount)
	c.unlockWrite(c.d.customer, cKey)

	c.Payments++
	c.AppliedAmount += amount
	return nil
}

// NewOrder consumes stock for a handful of items and advances the district's
// order counter.
func (c *Client) NewOrder() error {
	w := c.rng.intn(c.d.cfg.Warehouses)
	dd := c.rng.intn(DistrictsPerWarehouse)
	nItems := 5 + c.rng.intn(10)
	c.s.P.Work(6000)

	dKey := districtKey(w, dd)
	dTID, ok := c.fetchRow(c.d.district, "district_pk", dKey)
	if !ok {
		return fmt.Errorf("oltp: district %d missing", dKey)
	}
	c.lockWrite(c.d.district, dKey)
	c.update(c.d.district, dTID, DNextOID, 1)
	c.unlockWrite(c.d.district, dKey)

	for i := 0; i < nItems; i++ {
		sKey := stockKey(w, c.rng.intn(ItemsPerWarehouse))
		sTID, ok := c.fetchRow(c.d.stock, "stock_pk", sKey)
		if !ok {
			return fmt.Errorf("oltp: stock %d missing", sKey)
		}
		qty := int64(1 + c.rng.intn(5))
		c.lockWrite(c.d.stock, sKey)
		if got := c.update(c.d.stock, sTID, SQuantity, -qty); got < 10 {
			c.update(c.d.stock, sTID, SQuantity, 91) // restock, as TPC-C does
		}
		c.update(c.d.stock, sTID, SYtd, qty)
		c.unlockWrite(c.d.stock, sKey)
	}
	c.NewOrders++
	return nil
}

// RunMix executes the configured number of transactions.
func (c *Client) RunMix() error {
	for i := 0; i < c.d.cfg.Transactions; i++ {
		if c.rng.intn(100) < c.d.cfg.PaymentShare {
			if err := c.Payment(); err != nil {
				return err
			}
		} else {
			if err := c.NewOrder(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats is the outcome of an OLTP run.
type Stats struct {
	MachineName   string
	Granularity   Granularity
	Processes     int
	Transactions  int
	Payments      int
	NewOrders     int
	ThreadCycles  uint64 // total across processes
	WallCycles    uint64 // max across processes (makespan)
	VolSwitches   uint64
	Backoffs      uint64
	CoherencePct  float64
	Dirty3Hop     uint64
	AppliedAmount int64
	YtdTotal      int64 // measured warehouse w_ytd sum (conservation check)
}

// TxPerMCycle returns throughput in transactions per million wall cycles.
func (s *Stats) TxPerMCycle() float64 {
	if s.WallCycles == 0 {
		return 0
	}
	return float64(s.Transactions) / (float64(s.WallCycles) / 1e6)
}

// Run executes the OLTP mix with n processes on the given machine and checks
// the money-conservation invariant (sum of warehouse YTDs equals the total
// applied payment volume).
func Run(spec machine.Spec, cfg Config, n int, osTimeScale int) (*Stats, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("oltp: %w", err)
	}
	if n <= 0 || n > spec.CPUs {
		return nil, fmt.Errorf("oltp: bad process count %d", n)
	}
	d := Load(cfg)
	spec.SharedLimit = d.db.SharedBytes
	m := machine.New(spec)
	osys := simos.New(m, simos.DefaultConfigScaled(spec.ClockMHz, osTimeScale), 0)

	clients := make([]*Client, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		osys.Spawn(i, func(p *simos.Process) {
			c := d.NewClient(p, i)
			clients[i] = c
			errs[i] = c.RunMix()
		})
	}
	if err := osys.Run(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	st := &Stats{
		MachineName: spec.Name,
		Granularity: cfg.Granularity,
		Processes:   n,
	}
	var cold, capac, coh uint64
	for i, p := range osys.Processes() {
		c := clients[i]
		st.Transactions += c.Payments + c.NewOrders
		st.Payments += c.Payments
		st.NewOrders += c.NewOrders
		st.AppliedAmount += c.AppliedAmount
		st.ThreadCycles += p.ThreadCycles()
		if p.Now() > st.WallCycles {
			st.WallCycles = p.Now()
		}
		st.VolSwitches += p.VoluntarySwitches()
		ct := m.Counters(i)
		st.Backoffs += ct.LockBackoffs
		st.Dirty3Hop += ct.Dirty3HopMisses
		cold += ct.ColdMisses
		capac += ct.CapacityMisses
		coh += ct.CoherenceMisses
	}
	if total := cold + capac + coh; total > 0 {
		st.CoherencePct = 100 * float64(coh) / float64(total)
	}

	// Conservation: warehouse YTDs must equal the applied payment volume.
	for r := 0; r < d.wh.Heap.NumTuples(); r++ {
		st.YtdTotal += d.wh.Heap.ReadField(storage.NullMem{}, d.wh.Heap.TIDOf(r), WYtd)
	}
	if st.YtdTotal != st.AppliedAmount {
		return nil, fmt.Errorf("oltp: money not conserved: ytd %d vs applied %d",
			st.YtdTotal, st.AppliedAmount)
	}
	return st, nil
}
