package engine

import (
	"testing"

	"dssmem/internal/db/dbtest"
	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
	"dssmem/internal/perfctr"
)

func testDB() *Database {
	return Open(Config{PoolPages: 64})
}

func kvSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "k", Width: 8},
		storage.Column{Name: "v", Width: 8},
	)
}

func TestOpenLayout(t *testing.T) {
	db := testDB()
	if db.Pool.Base()%storage.PageSize != 0 {
		t.Fatal("pool not page aligned")
	}
	if db.SharedBytes < uint64(db.Pool.Base()) {
		t.Fatal("shared size wrong")
	}
	if db.BufMgrLock == nil || db.LockMgr == nil || db.Catalog == nil {
		t.Fatal("components missing")
	}
}

func TestOpenRejectsZeroPool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Open(Config{})
}

func TestCreateTableAndIndex(t *testing.T) {
	db := testDB()
	rel := db.CreateTable("t", kvSchema())
	for i := 0; i < 500; i++ {
		rel.Heap.Append([]int64{int64(i % 50), int64(i)})
	}
	ix := db.BuildIndex(rel, "t_k", 0)
	if ix.Len() != 500 {
		t.Fatalf("index entries = %d", ix.Len())
	}
	got := ix.Lookup(storage.NullMem{}, 7, nil)
	if len(got) != 10 { // 500 rows, 50 distinct keys
		t.Fatalf("lookup = %d entries", len(got))
	}
}

func TestPinUnpinChargesSharedMetadata(t *testing.T) {
	db := testDB()
	p := &dbtest.FakeProc{Keep: true}
	s := db.NewSession(p, 0)
	s.PinPage(3)
	if s.Pins != 1 {
		t.Fatal("pin not counted")
	}
	// Pin path: lock word load+store, hash load, header load+store.
	if p.Loads < 3 || p.Stores < 2 {
		t.Fatalf("pin charges: loads=%d stores=%d", p.Loads, p.Stores)
	}
	s.UnpinPage(3)
	if s.Unpins != 1 {
		t.Fatal("unpin not counted")
	}
	// All charged addresses are in the shared region (before the pool end).
	for _, a := range p.Trace {
		if uint64(a) >= db.SharedBytes {
			t.Fatalf("addr %#x outside shared layout", a)
		}
	}
}

func TestDistinctHeaderAddresses(t *testing.T) {
	db := testDB()
	if db.headerAddr(0) == db.headerAddr(1) {
		t.Fatal("headers alias")
	}
	if db.headerAddr(1)-db.headerAddr(0) != DefaultBufHeaderBytes {
		t.Fatal("header stride wrong")
	}
}

func TestHeaderPaddingKnob(t *testing.T) {
	db := Open(Config{PoolPages: 8, BufHeaderBytes: 128})
	if db.headerAddr(1)-db.headerAddr(0) != 128 {
		t.Fatal("BufHeaderBytes not honored")
	}
}

func TestWithPage(t *testing.T) {
	db := testDB()
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	ran := false
	s.WithPage(0, func() { ran = true })
	if !ran || s.Pins != 1 || s.Unpins != 1 {
		t.Fatal("WithPage bookkeeping broken")
	}
}

func TestRelationLockFlow(t *testing.T) {
	db := testDB()
	rel := db.CreateTable("t", kvSchema())
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	s.LockRelationShared(rel)
	if db.LockMgr.Readers(rel.ID) != 1 {
		t.Fatal("lock not taken")
	}
	s.UnlockRelationShared(rel)
	if db.LockMgr.Readers(rel.ID) != 0 {
		t.Fatal("lock not released")
	}
}

func TestSessionLookupCharges(t *testing.T) {
	db := testDB()
	db.CreateTable("t", kvSchema())
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	if s.Lookup("t") == nil || p.Loads == 0 {
		t.Fatal("catalog lookup not charged")
	}
}

func TestPoolDataDoesNotOverlapMetadata(t *testing.T) {
	db := testDB()
	rel := db.CreateTable("t", kvSchema())
	tid := rel.Heap.Append([]int64{1, 2})
	// The first tuple's address must be beyond the metadata regions.
	if db.Pool.PageAddr(int(tid.Page)) < db.bufHdrBase {
		t.Fatal("pool overlaps buffer headers")
	}
}

func TestClassifyRegions(t *testing.T) {
	db := testDB()
	rel := db.CreateTable("t", kvSchema())
	tid := rel.Heap.Append([]int64{1, 2})
	db.BuildIndex(rel, "t_k", 0)
	// Record page.
	if r := db.Classify(db.Pool.PageAddr(int(tid.Page))); r != perfctr.RegionRecord {
		t.Fatalf("record page classified %v", r)
	}
	// Index page: find one via the pool kinds.
	found := false
	for pg := 0; pg < db.Pool.Used(); pg++ {
		if db.Pool.KindOf(pg) == storage.PageIndex {
			if r := db.Classify(db.Pool.PageAddr(pg)); r != perfctr.RegionIndex {
				t.Fatalf("index page classified %v", r)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no index pages marked")
	}
	// Metadata: the BufMgrLock line.
	if r := db.Classify(memsys.SharedBase); r != perfctr.RegionMetadata {
		t.Fatalf("lock word classified %v", r)
	}
	// Private region.
	if r := db.Classify(memsys.PrivateBase(3) + 64); r != perfctr.RegionPrivate {
		t.Fatalf("private addr classified %v", r)
	}
}

func TestHintBitsDeterministicSubset(t *testing.T) {
	db := Open(Config{PoolPages: 64, HintBitFraction: 0.25})
	rel := db.CreateTable("t", kvSchema())
	var tids []storage.TID
	for i := 0; i < 4000; i++ {
		tids = append(tids, rel.Heap.Append([]int64{int64(i), 0}))
	}
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	for _, tid := range tids {
		s.CheckHints(rel.Heap, tid)
	}
	frac := float64(db.HintWrites) / float64(len(tids))
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("hint fraction %.3f, want ~0.25", frac)
	}
	// Second pass far in the future: everything already set, no new writes.
	p.Clock += 10_000_000
	before := db.HintWrites
	for _, tid := range tids {
		s.CheckHints(rel.Heap, tid)
	}
	if db.HintWrites != before {
		t.Fatalf("late re-check rewrote hints: %d -> %d", before, db.HintWrites)
	}
}

func TestHintBitRaceWindow(t *testing.T) {
	db := Open(Config{PoolPages: 64, HintBitFraction: 1.0})
	rel := db.CreateTable("t", kvSchema())
	tid := rel.Heap.Append([]int64{1, 2})
	a := &dbtest.FakeProc{}
	b := &dbtest.FakeProc{Clock: 50_000} // inside the race window
	c := &dbtest.FakeProc{Clock: 500_000}
	sa, sb, sc := db.NewSession(a, 0), db.NewSession(b, 1), db.NewSession(c, 2)
	sa.CheckHints(rel.Heap, tid)
	if db.HintWrites != 1 {
		t.Fatalf("first writer: %d", db.HintWrites)
	}
	sb.CheckHints(rel.Heap, tid) // racing: repeats the store
	if db.HintWrites != 2 {
		t.Fatalf("racer should re-store: %d", db.HintWrites)
	}
	sc.CheckHints(rel.Heap, tid) // far later: sees the hint
	if db.HintWrites != 2 {
		t.Fatalf("late reader should not store: %d", db.HintWrites)
	}
}

func TestHintBitsDisabled(t *testing.T) {
	db := Open(Config{PoolPages: 8, HintBitFraction: -1})
	rel := db.CreateTable("t", kvSchema())
	tid := rel.Heap.Append([]int64{1, 2})
	p := &dbtest.FakeProc{}
	db.NewSession(p, 0).CheckHints(rel.Heap, tid)
	if db.HintWrites != 0 || p.Stores != 0 {
		t.Fatal("disabled hints still wrote")
	}
}

func TestColdPoolFallbackWithoutIOWaiter(t *testing.T) {
	// A Proc without the IOWait capability (the test fake) still pays the
	// device latency as busy time.
	db := Open(Config{PoolPages: 8, ColdPool: true, IOLatency: 5000})
	rel := db.CreateTable("t", kvSchema())
	tid := rel.Heap.Append([]int64{1, 2})
	p := &dbtest.FakeProc{}
	s := db.NewSession(p, 0)
	before := p.Clock
	s.PinPage(int(tid.Page))
	if db.DiskReads != 1 {
		t.Fatalf("disk reads = %d", db.DiskReads)
	}
	if p.Clock-before < 5000 {
		t.Fatal("I/O latency not charged")
	}
	// Second pin: resident, no new read.
	s.UnpinPage(int(tid.Page))
	s.PinPage(int(tid.Page))
	if db.DiskReads != 1 {
		t.Fatal("resident page re-read")
	}
}

// Reopen shares the bulk load and its layout but starts every piece of
// per-run state fresh: a run cannot see an earlier run's hint bits, lock
// windows, cold-pool residency or counters.
func TestReopenSharesLoadWithFreshRunState(t *testing.T) {
	db := Open(Config{PoolPages: 64, HintBitFraction: 1.0, ColdPool: true, IOLatency: 5000})
	rel := db.CreateTable("t", kvSchema())
	tid := rel.Heap.Append([]int64{1, 2})
	s := db.NewSession(&dbtest.FakeProc{}, 0)
	s.PinPage(int(tid.Page))
	s.CheckHints(rel.Heap, tid)
	s.UnpinPage(int(tid.Page))
	if db.DiskReads != 1 || db.HintWrites != 1 || db.BufMgrLock.Acquires != 1 {
		t.Fatalf("first run: disk reads %d, hint writes %d, acquires %d", db.DiskReads, db.HintWrites, db.BufMgrLock.Acquires)
	}

	r := db.Reopen(Config{PoolPages: 64, BufHeaderBytes: DefaultBufHeaderBytes, SpinLimit: 9,
		HintBitFraction: 1.0, ColdPool: true, IOLatency: 5000})
	if r.Pool != db.Pool || r.Catalog != db.Catalog || r.SharedBytes != db.SharedBytes ||
		r.headerAddr(5) != db.headerAddr(5) {
		t.Fatal("reopen does not share the load and its layout")
	}
	if r.LockMgr == db.LockMgr || r.BufMgrLock == db.BufMgrLock || r.BufMgrLock.SpinLimit != 9 {
		t.Fatal("reopen shares the locks or ignores SpinLimit")
	}
	if r.DiskReads != 0 || r.HintWrites != 0 || r.BufMgrLock.Acquires != 0 {
		t.Fatal("reopen inherits counters")
	}
	p := &dbtest.FakeProc{Clock: 10_000_000} // far past the first run's hint store
	s = r.NewSession(p, 0)
	s.PinPage(int(tid.Page))
	s.CheckHints(rel.Heap, tid)
	if r.DiskReads != 1 || r.HintWrites != 1 {
		t.Fatalf("reopened run: disk reads %d, hint writes %d (want 1 and 1)", r.DiskReads, r.HintWrites)
	}
	if db.DiskReads != 1 || db.HintWrites != 1 {
		t.Fatal("the reopened run counted into the loaded database")
	}
	if s.Lookup("t") != rel {
		t.Fatal("reopen lost the catalog")
	}
}

func TestReopenRejectsAnotherLayout(t *testing.T) {
	db := testDB()
	for _, cfg := range []Config{{PoolPages: 65}, {PoolPages: 64, BufHeaderBytes: 128}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reopen(%+v) of a 64-page, 32-byte-header load did not panic", cfg)
				}
			}()
			db.Reopen(cfg)
		}()
	}
}
