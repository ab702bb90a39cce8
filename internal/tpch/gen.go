// Package tpch provides the workload substrate: a deterministic dbgen-style
// generator for the TPC-H tables the studied queries touch (lineitem, orders,
// supplier, nation), a loader that materializes them in the miniature DBMS,
// and the three queries the paper selected — Q6 (pure sequential scan), Q21
// (index-scan dominated) and Q12 (mixed) — implemented with the same plan
// shapes the paper reports, plus brute-force reference implementations used
// to validate query answers.
package tpch

import (
	"sync"
	"time"

	"dssmem/internal/db/engine"
	"dssmem/internal/db/storage"
)

// Column indices of the generated tables.
const (
	LOrderKey = iota
	LSuppKey
	LQuantity
	LExtendedPrice
	LDiscount
	LShipDate
	LCommitDate
	LReceiptDate
	LShipMode
	LLineNumber
)

// Orders columns.
const (
	OOrderKey = iota
	OOrderStatus
	OOrderDate
	OOrderPriority
)

// Supplier columns.
const (
	SSuppKey = iota
	SNationKey
)

// Nation columns.
const (
	NNationKey = iota
	NRegionKey
)

// Order status codes.
const (
	StatusF = 0 // all lineitems delivered
	StatusO = 1 // none delivered
	StatusP = 2 // partially delivered
)

// Ship modes (dbgen's seven).
const (
	ModeRegAir = iota
	ModeAir
	ModeRail
	ModeMail
	ModeShip
	ModeTruck
	ModeFob
)

// NumNations matches dbgen.
const NumNations = 25

var epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// Date returns days since 1992-01-01 for the given date.
func Date(y, m, d int) int32 {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return int32(t.Sub(epoch).Hours() / 24)
}

// currentDate is dbgen's CURRENTDATE (1995-06-17), used to derive
// o_orderstatus.
var currentDate = Date(1995, 6, 17)

// LineItem is one generated lineitem row (retained for reference queries).
type LineItem struct {
	OrderKey      int64
	SuppKey       int64
	Quantity      int64
	ExtendedPrice int64 // cents
	Discount      int64 // percent, 0..10
	ShipDate      int32
	CommitDate    int32
	ReceiptDate   int32
	ShipMode      int32
	LineNumber    int32
}

// Order is one generated orders row.
type Order struct {
	OrderKey    int64
	OrderStatus int32
	OrderDate   int32
	Priority    int32 // 0 = 1-URGENT, 1 = 2-HIGH, 2.. lower
}

// Supplier is one generated supplier row.
type Supplier struct {
	SuppKey   int64
	NationKey int32
}

// Data is a generated database image. Open and RefDigest memoize a bulk
// load per layout and a reference answer per query on the Data itself, so a
// Data must not be modified after its first Open or RefDigest.
type Data struct {
	SF        float64
	Lineitem  []LineItem
	Orders    []Order
	Suppliers []Supplier
	Nations   []int32 // region of each nation

	mu    sync.Mutex
	loads map[[2]int]*engine.Database // by PoolPages and BufHeaderBytes
	refs  map[QueryID]uint64
}

// rng is a splitmix64 generator: deterministic across runs and platforms.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate builds a deterministic database at the given scale factor.
// SF 1.0 corresponds to TPC-H's 1,500,000 orders; the paper used a 200 MB
// flat-file database (~SF 0.3 equivalents) scaled to its machines.
func Generate(sf float64, seed uint64) *Data {
	if sf <= 0 {
		panic("tpch: scale factor must be positive")
	}
	r := &rng{s: seed}
	nOrders := int(1_500_000 * sf)
	if nOrders < 64 {
		nOrders = 64
	}
	nSupp := int(10_000 * sf)
	if nSupp < 16 {
		nSupp = 16
	}
	d := &Data{SF: sf}

	d.Nations = make([]int32, NumNations)
	for i := range d.Nations {
		d.Nations[i] = int32(i % 5)
	}
	d.Suppliers = make([]Supplier, nSupp)
	for i := range d.Suppliers {
		d.Suppliers[i] = Supplier{SuppKey: int64(i + 1), NationKey: int32(r.intn(NumNations))}
	}

	maxOrderDate := int(Date(1998, 8, 2)) - 121 - 30
	d.Orders = make([]Order, nOrders)
	for i := 0; i < nOrders; i++ {
		orderKey := int64(i + 1)
		orderDate := int32(r.intn(maxOrderDate))
		nl := 1 + r.intn(7)
		allDelivered, noneDelivered := true, true
		for j := 0; j < nl; j++ {
			quantity := int64(1 + r.intn(50))
			price := int64(90_000 + r.intn(1_000_00))
			li := LineItem{
				OrderKey:      orderKey,
				SuppKey:       int64(1 + r.intn(nSupp)),
				Quantity:      quantity,
				ExtendedPrice: quantity * price,
				Discount:      int64(r.intn(11)),
				ShipDate:      orderDate + int32(1+r.intn(121)),
				CommitDate:    orderDate + int32(30+r.intn(61)),
				ShipMode:      int32(r.intn(7)),
				LineNumber:    int32(j + 1),
			}
			li.ReceiptDate = li.ShipDate + int32(1+r.intn(30))
			d.Lineitem = append(d.Lineitem, li)
			if li.ReceiptDate <= currentDate {
				noneDelivered = false
			} else {
				allDelivered = false
			}
		}
		status := int32(StatusP)
		if allDelivered {
			status = StatusF
		} else if noneDelivered {
			status = StatusO
		}
		d.Orders[i] = Order{
			OrderKey:    orderKey,
			OrderStatus: status,
			OrderDate:   orderDate,
			Priority:    int32(r.intn(5)),
		}
	}
	return d
}

// RawBytes estimates the flat-file footprint of the generated data (the
// paper's "200 MB" is this number for its database).
func (d *Data) RawBytes() uint64 {
	return uint64(len(d.Lineitem))*60 + uint64(len(d.Orders))*20 +
		uint64(len(d.Suppliers))*12 + uint64(len(d.Nations))*8
}

// Schemas for the stored tables.
func lineitemSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "l_orderkey", Width: 8},
		storage.Column{Name: "l_suppkey", Width: 8},
		storage.Column{Name: "l_quantity", Width: 8},
		storage.Column{Name: "l_extendedprice", Width: 8},
		storage.Column{Name: "l_discount", Width: 8},
		storage.Column{Name: "l_shipdate", Width: 4},
		storage.Column{Name: "l_commitdate", Width: 4},
		storage.Column{Name: "l_receiptdate", Width: 4},
		storage.Column{Name: "l_shipmode", Width: 4},
		storage.Column{Name: "l_linenumber", Width: 4},
	)
}

func ordersSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "o_orderkey", Width: 8},
		storage.Column{Name: "o_orderstatus", Width: 4},
		storage.Column{Name: "o_orderdate", Width: 4},
		storage.Column{Name: "o_orderpriority", Width: 4},
	)
}

func supplierSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "s_suppkey", Width: 8},
		storage.Column{Name: "s_nationkey", Width: 4},
	)
}

func nationSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "n_nationkey", Width: 4},
		storage.Column{Name: "n_regionkey", Width: 4},
	)
}

// PoolPagesFor returns a buffer-pool size (in pages) ample for the data plus
// its indexes, so the database is fully resident as in the paper.
func PoolPagesFor(d *Data) int {
	rows := len(d.Lineitem) + len(d.Orders) + len(d.Suppliers) + NumNations
	// Heap pages + generous index allowance + slack.
	pages := int(d.RawBytes()/storage.PageSize) + rows/400 + 64
	return pages * 2
}

// Load materializes the data in db: heap files plus the indexes the paper's
// plans use (lineitem(orderkey), orders(orderkey), supplier(suppkey),
// nation(nationkey)).
func Load(db *engine.Database, d *Data) {
	li := db.CreateTable("lineitem", lineitemSchema())
	ord := db.CreateTable("orders", ordersSchema())
	sup := db.CreateTable("supplier", supplierSchema())
	nat := db.CreateTable("nation", nationSchema())

	for i := range d.Lineitem {
		l := &d.Lineitem[i]
		li.Heap.Append([]int64{
			l.OrderKey, l.SuppKey, l.Quantity, l.ExtendedPrice, l.Discount,
			int64(l.ShipDate), int64(l.CommitDate), int64(l.ReceiptDate),
			int64(l.ShipMode), int64(l.LineNumber),
		})
	}
	for i := range d.Orders {
		o := &d.Orders[i]
		ord.Heap.Append([]int64{o.OrderKey, int64(o.OrderStatus), int64(o.OrderDate), int64(o.Priority)})
	}
	for i := range d.Suppliers {
		s := &d.Suppliers[i]
		sup.Heap.Append([]int64{s.SuppKey, int64(s.NationKey)})
	}
	for i, reg := range d.Nations {
		nat.Heap.Append([]int64{int64(i), int64(reg)})
	}

	db.BuildIndex(li, "lineitem_orderkey", LOrderKey)
	db.BuildIndex(ord, "orders_pk", OOrderKey)
	db.BuildIndex(sup, "supplier_pk", SSuppKey)
	db.BuildIndex(nat, "nation_pk", NNationKey)
}

// Open returns a database over d's bulk load for cfg's layout, with cfg's
// per-run state (see engine.Database.Reopen). The first call per layout
// opens and loads one; every call reopens it, and the loaded database itself
// is never handed out. Query runs only read the pool, so they all share one
// load; a program that writes the pool must open and load its own.
func Open(d *Data, cfg engine.Config) *engine.Database {
	hdr := cfg.BufHeaderBytes
	if hdr <= 0 {
		hdr = engine.DefaultBufHeaderBytes
	}
	key := [2]int{cfg.PoolPages, hdr}
	d.mu.Lock()
	db := d.loads[key]
	if db == nil {
		db = engine.Open(cfg)
		Load(db, d)
		if d.loads == nil {
			d.loads = make(map[[2]int]*engine.Database)
		}
		d.loads[key] = db
	}
	d.mu.Unlock()
	return db.Reopen(cfg)
}
