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
	"dssmem/internal/workload"
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

	// Stats.
	Payments  int
	NewOrders int
	// AppliedAmount is this client's total Payment volume (for the global
	// conservation check).
	AppliedAmount int64
}

// NewClient opens a transaction client on session s, whose PID seeds its
// transaction stream.
func (d *DB) NewClient(s *engine.Session) *Client {
	return &Client{
		d:   d,
		s:   s,
		ctx: executor.NewContext(s),
		rng: txRng{s: d.cfg.Seed + uint64(s.PID)*0x9E3779B97F4A7C15},
	}
}

// lockWrite takes the configured write lock for (rel,row).
func (c *Client) lockWrite(rel *catalog.Relation, row int64) {
	if c.d.cfg.Granularity == RowLocks {
		c.d.db.LockMgr.AcquireRowExclusive(c.s.P, c.s.PID, rel.ID, row)
	} else {
		c.d.db.LockMgr.AcquireExclusive(c.s.P, c.s.PID, rel.ID)
	}
}

func (c *Client) unlockWrite(rel *catalog.Relation, row int64) {
	if c.d.cfg.Granularity == RowLocks {
		c.d.db.LockMgr.ReleaseRowExclusive(c.s.P, c.s.PID, rel.ID, row)
	} else {
		c.d.db.LockMgr.ReleaseExclusive(c.s.P, c.s.PID, rel.ID)
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

// Program is the OLTP mix as a workload.Program: Load builds the tables,
// each process runs the configured transactions on its own client, and
// Check asserts money conservation (the warehouse YTDs sum to the applied
// payment volume). It keeps its run's database and clients, so it serves
// one run at a time.
type Program struct {
	cfg     Config
	d       *DB
	clients []*Client
}

// NewProgram returns the OLTP mix under cfg.
func NewProgram(cfg Config) *Program { return &Program{cfg: cfg} }

// Load builds the tables.
func (w *Program) Load(opts workload.Options) (*engine.Database, error) {
	if w.cfg.Warehouses <= 0 {
		return nil, fmt.Errorf("oltp: need at least one warehouse")
	}
	w.d = Load(w.cfg)
	w.clients = make([]*Client, opts.Processes)
	return w.d.db, nil
}

// Run opens a client on the process's session and runs the mix.
func (w *Program) Run(_ *simos.Process, s *engine.Session) error {
	w.clients[s.PID] = w.d.NewClient(s)
	return w.clients[s.PID].RunMix()
}

// Check asserts money conservation: the warehouse YTDs sum to the payment
// volume the clients applied.
func (w *Program) Check(workload.Options) error {
	if s := w.Stats(&workload.Stats{}); s.YtdTotal != s.AppliedAmount {
		return fmt.Errorf("oltp: money not conserved: ytd %d vs applied %d", s.YtdTotal, s.AppliedAmount)
	}
	return nil
}

// Stats builds the OLTP view of the run that st measured: the clients'
// transactions, the warehouse YTDs and st's per-process clocks and counters.
func (w *Program) Stats(st *workload.Stats) *Stats {
	s := &Stats{MachineName: st.MachineName, Granularity: w.cfg.Granularity, Processes: st.Processes}
	for _, c := range w.clients {
		s.Transactions += c.Payments + c.NewOrders
		s.Payments += c.Payments
		s.NewOrders += c.NewOrders
		s.AppliedAmount += c.AppliedAmount
	}
	wh := w.d.wh.Heap
	for r := 0; r < wh.NumTuples(); r++ { // read without charging the simulation
		s.YtdTotal += wh.ReadField(storage.NullMem{}, wh.TIDOf(r), WYtd)
	}
	var cold, capac, coh uint64
	for _, p := range st.Procs {
		s.ThreadCycles += p.ThreadCycles
		s.WallCycles = max(s.WallCycles, p.WallCycles)
		s.VolSwitches += p.Vol
		s.Backoffs += p.Counters.LockBackoffs
		s.Dirty3Hop += p.Counters.Dirty3HopMisses
		cold += p.Counters.ColdMisses
		capac += p.Counters.CapacityMisses
		coh += p.Counters.CoherenceMisses
	}
	if total := cold + capac + coh; total > 0 {
		s.CoherencePct = 100 * float64(coh) / float64(total)
	}
	return s
}

// Run executes the OLTP mix with n processes on the given machine through
// the workload lifecycle and checks money conservation.
func Run(spec machine.Spec, cfg Config, n int, osTimeScale int) (*Stats, error) {
	w := NewProgram(cfg)
	st, err := workload.Run(workload.Options{Spec: spec, Processes: n, OSTimeScale: osTimeScale, Program: w})
	if err != nil {
		return nil, err
	}
	return w.Stats(st), nil
}
