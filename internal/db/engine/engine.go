// Package engine assembles the miniature DBMS: shared-memory layout, buffer
// manager, catalog, lock manager, and per-process sessions. It corresponds to
// the single instrumented PostgreSQL executable of the paper: every session
// operation charges its memory references to the machine model via the
// process handle.
package engine

import (
	"dssmem/internal/db/btree"
	"dssmem/internal/db/catalog"
	"dssmem/internal/db/lock"
	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
	"dssmem/internal/perfctr"
)

// Proc is the process view the engine charges work to; *simos.Process
// implements it (see lock.Proc).
type Proc = lock.Proc

// Config sizes the database's shared memory.
type Config struct {
	// PoolPages is the buffer pool capacity; size it to hold the whole
	// database (the paper configured a 512 MB pool for a ~400 MB database).
	PoolPages int
	// SpinLimit overrides the spin count before select() back-off (0 =
	// default).
	SpinLimit int
	// BufHeaderBytes is the size of one buffer descriptor. The era's
	// PostgreSQL did not pad descriptors to cache lines, so neighbouring
	// headers share lines and false-share; 64+ makes each header line-private
	// on 32/64-byte-line machines (an ablation knob).
	BufHeaderBytes int
	// HintBitFraction is the fraction of tuples whose first visibility check
	// consults the shared transaction log and then writes hint bits back
	// into the tuple header — a store into the shared record page. The
	// paper averaged four trials per configuration, the first on freshly
	// loaded tables with no hint bits set, so about a quarter of all tuple
	// visits pay this path. Negative disables; 0 selects the default.
	HintBitFraction float64
	// ColdPool starts the buffer pool empty: the first pin of each page pays
	// a disk read of IOLatency cycles (a blocking I/O and thus a voluntary
	// context switch). The paper's steady-state measurements ran warm — its
	// pool held the whole database — so this models the first of its four
	// trials.
	ColdPool  bool
	IOLatency uint64
}

// hintRaceWindow is the simulated-cycle window within which concurrent
// scanners racing past the same tuple all repeat the visibility check and
// hint store (none of them sees the others' store in time). It spans a few
// scheduler quanta of lockstep skew.
const hintRaceWindow = 100_000

// DefaultHintBitFraction reflects the paper's 4-trial averaging over a
// freshly loaded database (see Config.HintBitFraction).
const DefaultHintBitFraction = 0.25

// Database is one DBMS instance over one simulated machine's shared memory.
// Pool and Catalog (heaps and B+trees included) are what a bulk load builds,
// placed by the layout that PoolPages and BufHeaderBytes fix; Reopen shares
// them. The rest is per-run state that every Open or Reopen starts fresh.
type Database struct {
	cfg Config

	Pool    *storage.Pool
	Catalog *catalog.Catalog
	LockMgr *lock.Manager

	// BufMgrLock serializes buffer lookups and pins, as the single spinlock
	// did in the paper's PostgreSQL. It is the main contention point.
	BufMgrLock *lock.SpinLock

	bufHdrBase   memsys.Addr
	bufHashBase  memsys.Addr
	freelistAddr memsys.Addr
	pgLogBase    memsys.Addr
	hintPermille uint64
	hintsSet     map[storage.TID]uint64 // TID -> time of the first hint store
	ioLatency    uint64
	resident     []bool // per pool page; nil when the pool starts warm

	// DiskReads counts simulated device reads (cold pool only).
	DiskReads uint64

	// HintWrites counts hint-bit stores into shared record pages.
	HintWrites uint64

	// SharedBytes is the total shared footprint, used to size the machine's
	// dense directory region.
	SharedBytes uint64
}

// DefaultBufHeaderBytes matches the unpadded descriptors of the era.
const DefaultBufHeaderBytes = 32

// Layout constants for the fixed head of shared memory.
const (
	bufMgrLockOff = 0       // one line for BufMgrLock (+ freelist head)
	pgLogOff      = 1 << 10 // transaction-status (pg_log) hot pages
	pgLogBytes    = 2 << 10
	lockMgrOff    = 4 << 10  // lock + transaction hash tables
	catalogOff    = 64 << 10 // system catalog tuples
	bufHashOff    = 128 << 10
)

// Open creates a database with an empty pool.
func Open(cfg Config) *Database {
	if cfg.PoolPages <= 0 {
		panic("engine: PoolPages must be positive")
	}
	return open(cfg, nil)
}

// Reopen returns a database over db's pool and catalog, as its bulk load
// left them, with fresh per-run state from cfg: a new BufMgrLock and lock
// manager, no hint bits set, cfg's cold-pool residency and zero counters.
// Runs on reopened databases may proceed concurrently as long as none
// writes the pool. cfg must give db's PoolPages and BufHeaderBytes, since
// they place the pool; it panics otherwise, as configs are code.
func (db *Database) Reopen(cfg Config) *Database {
	r := open(cfg, db)
	if r.cfg.PoolPages != db.cfg.PoolPages || r.cfg.BufHeaderBytes != db.cfg.BufHeaderBytes {
		panic("engine: Reopen with another PoolPages or BufHeaderBytes")
	}
	return r
}

// open builds a database with fresh per-run state over loaded's pool and
// catalog, or over an empty pool and catalog when loaded is nil.
func open(cfg Config, loaded *Database) *Database {
	if cfg.BufHeaderBytes <= 0 {
		cfg.BufHeaderBytes = DefaultBufHeaderBytes
	}
	hdrBytes := uint64(cfg.PoolPages * cfg.BufHeaderBytes)
	hashBytes := uint64(cfg.PoolPages * 16) // buffer hash table
	bufHdrBase := memsys.SharedBase + memsys.Addr(bufHashOff) + memsys.Addr(hashBytes)
	poolBase := (bufHdrBase + memsys.Addr(hdrBytes) + storage.PageSize - 1) &^ (storage.PageSize - 1)

	db := &Database{
		cfg:         cfg,
		LockMgr:     lock.NewManager(memsys.SharedBase+lockMgrOff, 64),
		BufMgrLock:  lock.NewSpinLock(memsys.SharedBase + bufMgrLockOff),
		bufHdrBase:  bufHdrBase,
		bufHashBase: memsys.SharedBase + bufHashOff,
	}
	if loaded != nil {
		db.Pool, db.Catalog = loaded.Pool, loaded.Catalog
	} else {
		db.Pool = storage.NewPool(poolBase, cfg.PoolPages)
		db.Catalog = catalog.New(memsys.SharedBase+catalogOff, bufHashOff-catalogOff)
	}
	if cfg.SpinLimit > 0 {
		db.BufMgrLock.SpinLimit = cfg.SpinLimit
	}
	db.freelistAddr = memsys.SharedBase + bufMgrLockOff + 64
	db.pgLogBase = memsys.SharedBase + pgLogOff
	frac := cfg.HintBitFraction
	switch {
	case frac < 0:
		frac = 0
	case frac == 0:
		frac = DefaultHintBitFraction
	}
	db.hintPermille = uint64(frac * 1000)
	db.hintsSet = make(map[storage.TID]uint64)
	if cfg.ColdPool {
		db.resident = make([]bool, cfg.PoolPages)
		db.ioLatency = cfg.IOLatency
	}
	db.SharedBytes = uint64(poolBase) + uint64(cfg.PoolPages)*storage.PageSize
	return db
}

// Classify maps a simulated address to the paper's data taxonomy: record
// pages, index pages, shared metadata (locks, pg_log, catalog, buffer
// headers/hash), or backend-private memory.
func (db *Database) Classify(addr memsys.Addr) perfctr.Region {
	if _, priv := memsys.IsPrivate(addr); priv {
		return perfctr.RegionPrivate
	}
	switch db.Pool.KindOfAddr(addr) {
	case storage.PageRecord:
		return perfctr.RegionRecord
	case storage.PageIndex:
		return perfctr.RegionIndex
	}
	return perfctr.RegionMetadata
}

// CreateTable makes a relation with the given schema.
func (db *Database) CreateTable(name string, schema *storage.Schema) *catalog.Relation {
	heap := storage.NewHeap(db.Pool, schema)
	return db.Catalog.Create(name, heap)
}

// BuildIndex creates a B+tree on rel keyed by column col. Bulk-load time, so
// nothing is charged.
func (db *Database) BuildIndex(rel *catalog.Relation, name string, col int) *btree.Tree {
	t := btree.New(db.Pool)
	h := rel.Heap
	for i := 0; i < h.NumTuples(); i++ {
		tid := h.TIDOf(i)
		t.Insert(h.ReadField(storage.NullMem{}, tid, col), tid)
	}
	db.Catalog.AddIndex(rel, name, t)
	return t
}

// headerAddr returns the buffer descriptor address of pool page pg.
func (db *Database) headerAddr(pg int) memsys.Addr {
	return db.bufHdrBase + memsys.Addr(pg*db.cfg.BufHeaderBytes)
}

// hashAddr returns the buffer hash-table bucket address of pool page pg.
func (db *Database) hashAddr(pg int) memsys.Addr {
	return db.bufHashBase + memsys.Addr((pg%db.cfg.PoolPages)*16)
}

// Session is one backend process's handle onto the database.
type Session struct {
	DB  *Database
	P   Proc
	PID int

	mem storage.Mem // P as the storage charging interface, converted once

	// Stats.
	Pins   uint64
	Unpins uint64
}

// NewSession opens a backend for process pid.
func (db *Database) NewSession(p Proc, pid int) *Session {
	return &Session{DB: db, P: p, PID: pid, mem: p}
}

// ioWaiter is the optional process capability cold-pool reads need;
// *simos.Process provides it.
type ioWaiter interface{ IOWait(cycles uint64) }

// maybeReadFromDisk pays the device read for a page's first touch when the
// pool starts cold. The page is marked resident before the wait so racing
// processes ride the same in-flight I/O instead of issuing duplicates.
func (s *Session) maybeReadFromDisk(pg int) {
	db := s.DB
	if db.resident == nil || db.resident[pg] {
		return
	}
	db.resident[pg] = true
	db.DiskReads++
	s.P.Work(900) // filesystem + driver path
	if w, ok := s.P.(ioWaiter); ok {
		w.IOWait(db.ioLatency)
	} else {
		s.P.Work(db.ioLatency)
	}
}

// PinPage looks up and pins a pool page: BufMgrLock, buffer hash probe, and a
// reference-count bump in the buffer descriptor — the shared-metadata writes
// that the paper identifies as the communication between query processes.
func (s *Session) PinPage(pg int) {
	db := s.DB
	s.maybeReadFromDisk(pg)
	db.BufMgrLock.Acquire(s.P, s.PID)
	s.P.Load(db.hashAddr(pg), 8) // hash bucket
	s.P.Work(18)                 // tag compare + bufmgr logic
	s.P.Load(db.headerAddr(pg), 8)
	s.P.Store(db.headerAddr(pg), 8) // refcount++
	// Unlink the buffer from the shared freelist (PG 6.5 kept every unpinned
	// buffer on a doubly-linked freelist, so each pin writes its head).
	s.P.Store(db.freelistAddr, 8)
	db.BufMgrLock.Release(s.P, s.PID)
	s.Pins++
}

// UnpinPage drops a pin (ReleaseBuffer). Releases touch only the buffer
// descriptor itself (per-buffer spinlock semantics), not the global
// BufMgrLock.
func (s *Session) UnpinPage(pg int) {
	db := s.DB
	s.P.Store(db.headerAddr(pg), 8) // refcount--
	s.P.Store(db.freelistAddr, 8)   // re-link onto the shared freelist
	s.P.Work(8)
	s.Unpins++
}

// WithPage pins pg, runs fn, and unpins.
func (s *Session) WithPage(pg int, fn func()) {
	s.PinPage(pg)
	fn()
	s.UnpinPage(pg)
}

// LockRelationShared takes the relation-level read lock, as each query does
// once per referenced table.
func (s *Session) LockRelationShared(rel *catalog.Relation) {
	s.DB.LockMgr.AcquireShared(s.P, s.PID, rel.ID)
}

// UnlockRelationShared releases it at end of query.
func (s *Session) UnlockRelationShared(rel *catalog.Relation) {
	s.DB.LockMgr.ReleaseShared(s.P, s.PID, rel.ID)
}

// CheckHints models the visibility check of one tuple: a deterministic
// subset of tuples (those "recently" written, HintBitFraction of them) have
// no hint bits yet, so their first reader consults the shared transaction
// log and writes HEAP_XMIN_COMMITTED back into the tuple header — a store to
// the shared record page that invalidates every other scanning process's
// copy of that line. This is the per-tuple shared-metadata communication the
// paper's multi-process runs expose.
func (s *Session) CheckHints(heap *storage.Heap, tid storage.TID) {
	db := s.DB
	if db.hintPermille == 0 {
		return
	}
	h := (uint64(tid.Page)*2654435761 + uint64(tid.Slot)) * 0x9E3779B97F4A7C15
	if (h>>32)%1000 >= db.hintPermille {
		return
	}
	now := s.P.Now()
	if setAt, done := db.hintsSet[tid]; done {
		// Another process already stored the hint. If this process is racing
		// within the concurrency window it has not seen that store and
		// repeats the check and the store itself; otherwise the hint is
		// visible and the check is free.
		if now > setAt+hintRaceWindow {
			return
		}
		db.HintWrites++
	} else {
		db.hintsSet[tid] = now
		db.HintWrites++
	}
	s.P.Work(60) // HeapTupleSatisfies + TransactionIdDidCommit
	s.P.Load(db.pgLogBase+memsys.Addr(h%pgLogBytes), 8)
	s.P.Store(heap.TupleAddr(tid), 2)
}

// Lookup resolves a table by name with charged catalog reads.
func (s *Session) Lookup(name string) *catalog.Relation {
	return s.DB.Catalog.Lookup(s.mem, name)
}

// Mem returns the session's charging interface for storage-level calls.
func (s *Session) Mem() storage.Mem { return s.mem }
