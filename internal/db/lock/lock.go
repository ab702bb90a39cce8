// Package lock implements the DBMS synchronization stack the paper traces its
// voluntary context switches to: test-and-set spinlocks acquired with a
// bounded spin followed by a select() back-off (PostgreSQL's s_lock), light-
// weight shared/exclusive locks built on them, and a relation-level lock
// manager whose lock and transaction hash tables live in shared memory.
//
// Lock words and tables occupy real simulated addresses, so acquiring a lock
// generates exactly the coherence traffic the paper discusses (a
// read-modify-write of a shared line, which the V-Class migratory enhancement
// optimizes).
package lock

import (
	"fmt"

	"dssmem/internal/memsys"
)

// Proc is the view of a simulated process the lock layer needs. It is
// satisfied by *simos.Process.
type Proc interface {
	Load(addr memsys.Addr, size int)
	Store(addr memsys.Addr, size int)
	Work(n uint64)
	Spin()
	Backoff()
	Now() uint64
}

// Eventer is an optional extension of Proc: implementations that also carry
// lock-level telemetry (e.g. *simos.Process, which counts acquisitions in
// the CPU's counter file and feeds the obs event trace) receive one
// callback per successful spinlock acquisition.
type Eventer interface {
	LockAcquired(addr memsys.Addr, contended bool)
}

func notifyAcquired(p Proc, addr memsys.Addr, contended bool) {
	if e, ok := p.(Eventer); ok {
		e.LockAcquired(addr, contended)
	}
}

// DefaultSpinLimit is how many busy-wait iterations a process tries before
// backing off with select(). The era's s_lock gave up quickly — "if a query
// process cannot get a spinlock, the process would delay some time, using the
// select() system call, and try again later".
const DefaultSpinLimit = 4

// holdWindow is one completed lock hold in simulated time.
type holdWindow struct{ start, end uint64 }

// windowRing remembers recent hold intervals so a process whose clock lags
// the serialized execution still observes the contention a truly concurrent
// run would have had: an attempt at time t is blocked iff t falls inside a
// recorded hold.
type windowRing struct {
	buf [32]holdWindow
	n   int
}

func (w *windowRing) add(start, end uint64) {
	w.buf[w.n%len(w.buf)] = holdWindow{start, end}
	w.n++
}

func (w *windowRing) covers(t uint64) bool {
	for i := range w.buf {
		if h := w.buf[i]; h.end > h.start && t >= h.start && t < h.end {
			return true
		}
	}
	return false
}

// SpinLock is a test-and-set lock at a shared address. Because the simulation
// kernel serializes processes, the lock tracks logical hold intervals: a
// process attempting at simulated time t finds the lock busy if another
// process's hold covers t.
type SpinLock struct {
	addr       memsys.Addr
	held       bool
	owner      int
	acquiredAt uint64
	windows    windowRing
	SpinLimit  int

	// Stats.
	Acquires  uint64
	Contended uint64 // acquisitions that found the lock busy at least once
	Backoffs  uint64 // acquisitions that gave up spinning at least once
}

// NewSpinLock creates a spinlock whose word lives at addr.
func NewSpinLock(addr memsys.Addr) *SpinLock {
	return &SpinLock{addr: addr, owner: -1, SpinLimit: DefaultSpinLimit}
}

// Addr returns the lock word's address.
func (l *SpinLock) Addr() memsys.Addr { return l.addr }

// TryAcquire attempts a single test-and-set at the process's current time.
func (l *SpinLock) TryAcquire(p Proc, pid int) bool {
	p.Load(l.addr, 8) // read the lock word
	if l.held || l.windows.covers(p.Now()) {
		return false
	}
	// Commit the lock state before charging the TAS store: the store may
	// yield the simulation quantum, and the atomic hardware TAS must not be
	// interleavable with another process's attempt.
	l.held = true
	l.owner = pid
	l.acquiredAt = p.Now()
	p.Store(l.addr, 8) // TAS write: takes the line exclusive
	return true
}

// Acquire takes the lock, spinning up to SpinLimit iterations and then
// backing off via select() (a voluntary context switch), exactly the
// PostgreSQL pattern the paper identifies as the source of the voluntary
// switches in Fig. 10.
func (l *SpinLock) Acquire(p Proc, pid int) {
	l.Acquires++
	if l.TryAcquire(p, pid) {
		notifyAcquired(p, l.addr, false)
		return
	}
	l.Contended++
	spins := 0
	for {
		spins++
		if spins > l.spinLimit() {
			spins = 0
			l.Backoffs++
			p.Backoff()
		} else {
			p.Spin()
		}
		if l.TryAcquire(p, pid) {
			notifyAcquired(p, l.addr, true)
			return
		}
	}
}

func (l *SpinLock) spinLimit() int {
	if l.SpinLimit > 0 {
		return l.SpinLimit
	}
	return DefaultSpinLimit
}

// Release frees the lock; the caller must hold it.
func (l *SpinLock) Release(p Proc, pid int) {
	if !l.held || l.owner != pid {
		panic(fmt.Sprintf("lock: release by non-owner: addr=%#x held=%v owner=%d pid=%d", l.addr, l.held, l.owner, pid))
	}
	p.Store(l.addr, 8)
	l.held = false
	l.owner = -1
	end := p.Now()
	if end <= l.acquiredAt {
		end = l.acquiredAt + 1
	}
	l.windows.add(l.acquiredAt, end)
}

// HeldBy reports the current owner (-1 when free) — for tests.
func (l *SpinLock) HeldBy() int {
	if !l.held {
		return -1
	}
	return l.owner
}

// Mode distinguishes shared from exclusive acquisition.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// LWLock is a lightweight shared/exclusive lock: a spinlock-protected state
// word, as in PostgreSQL's buffer manager and lock manager. Waiters back off
// with select() like spinlock waiters (the era's implementation).
type LWLock struct {
	mutex     *SpinLock
	stateAddr memsys.Addr
	sharers   int
	exclusive bool
	// exWindows records completed exclusive holds so late-clock processes
	// see historical contention windows.
	exWindows windowRing
	exTakenAt uint64

	// Stats.
	Acquires uint64
	Waits    uint64
}

// NewLWLock creates an LWLock occupying two shared words starting at addr.
func NewLWLock(addr memsys.Addr) *LWLock {
	return &LWLock{mutex: NewSpinLock(addr), stateAddr: addr + 8}
}

// Acquire takes the lock in the given mode.
func (l *LWLock) Acquire(p Proc, pid int, mode Mode) {
	l.Acquires++
	for {
		l.mutex.Acquire(p, pid)
		p.Load(l.stateAddr, 8)
		ok := false
		switch mode {
		case Shared:
			ok = !l.exclusive && !l.exWindows.covers(p.Now())
			if ok {
				l.sharers++
			}
		case Exclusive:
			ok = !l.exclusive && l.sharers == 0 && !l.exWindows.covers(p.Now())
			if ok {
				l.exclusive = true
				l.exTakenAt = p.Now()
			}
		}
		if ok {
			p.Store(l.stateAddr, 8)
			p.Work(10)
			l.mutex.Release(p, pid)
			return
		}
		l.Waits++
		l.mutex.Release(p, pid)
		p.Backoff()
	}
}

// Release drops the lock (mode must match the acquisition).
func (l *LWLock) Release(p Proc, pid int, mode Mode) {
	l.mutex.Acquire(p, pid)
	p.Load(l.stateAddr, 8)
	switch mode {
	case Shared:
		if l.sharers <= 0 {
			panic("lock: shared release without holders")
		}
		l.sharers--
	case Exclusive:
		if !l.exclusive {
			panic("lock: exclusive release while not held")
		}
		l.exclusive = false
		end := p.Now()
		if end <= l.exTakenAt {
			end = l.exTakenAt + 1
		}
		l.exWindows.add(l.exTakenAt, end)
	}
	p.Store(l.stateAddr, 8)
	l.mutex.Release(p, pid)
}

// relKey identifies a relation- or row-level lock (row < 0 means the whole
// relation).
type relKey struct {
	rel int
	row int64
}

type relEntry struct {
	addr      memsys.Addr
	readers   int
	writer    bool
	writerPid int
	exTakenAt uint64
	exWindows windowRing
}

// Manager is the relation-level lock manager: a shared hash table of lock
// entries guarded by a single LockMgr spinlock, like the paper's PostgreSQL
// ("currently PostgreSQL fully supports only relation level locking").
// Read-only TPC-H queries take relation locks in Shared mode, which never
// blocks — but every acquisition still reads and writes the shared lock and
// transaction hash tables, producing the migratory sharing the paper
// analyzes.
type Manager struct {
	mutex   *SpinLock
	base    memsys.Addr
	buckets int
	entries map[relKey]*relEntry
	nextOff uint64

	// Stats.
	RelationAcquires uint64
	RowAcquires      uint64
}

// NewManager creates a lock manager whose tables occupy [base, base+size).
func NewManager(base memsys.Addr, buckets int) *Manager {
	return &Manager{
		mutex:   NewSpinLock(base),
		base:    base + 64, // table starts after the LockMgrLock's line
		buckets: buckets,
		entries: make(map[relKey]*relEntry),
	}
}

func (m *Manager) entry(rel int, row int64) *relEntry {
	k := relKey{rel: rel, row: row}
	e := m.entries[k]
	if e == nil {
		bucket := (uint64(rel)*31 + uint64(row)) % uint64(m.buckets)
		e = &relEntry{addr: m.base + memsys.Addr(bucket*128+m.nextOff%128)}
		m.nextOff += 32
		m.entries[k] = e
	}
	return e
}

// AcquireShared takes a relation-level read lock: hash-table probe under the
// LockMgr spinlock, then an update of the lock and transaction tables (the
// read-check-update sequence whose dirty-line handoff the migratory protocol
// accelerates).
func (m *Manager) AcquireShared(p Proc, pid, rel int) {
	m.RelationAcquires++
	for {
		m.mutex.Acquire(p, pid)
		e := m.entry(rel, -1)
		p.Load(e.addr, 8) // check lock compatibility
		p.Work(30)        // hash + compatibility logic
		if !e.writer && !e.exWindows.covers(p.Now()) {
			e.readers++
			p.Store(e.addr, 8)   // grant: bump reader count
			p.Store(e.addr+8, 8) // record in the transaction (proclock) table
			m.mutex.Release(p, pid)
			return
		}
		m.mutex.Release(p, pid)
		p.Backoff() // a writer holds the relation: sleep and retry
	}
}

// ReleaseShared drops a relation-level read lock.
func (m *Manager) ReleaseShared(p Proc, pid, rel int) {
	m.mutex.Acquire(p, pid)
	e := m.entry(rel, -1)
	p.Load(e.addr, 8)
	if e.readers <= 0 {
		panic("lock: relation release without holders")
	}
	e.readers--
	p.Store(e.addr, 8)
	p.Work(20)
	m.mutex.Release(p, pid)
}

// acquireExclusive is the common writer path for relation- and row-level
// locks. Writers wait for readers and other writers, backing off with
// select() — PostgreSQL of the era supported only relation-level locking,
// which is why the paper remarks it "may become a bottleneck in multiple
// parallel queries".
func (m *Manager) acquireExclusive(p Proc, pid, rel int, row int64) {
	for {
		m.mutex.Acquire(p, pid)
		e := m.entry(rel, row)
		p.Load(e.addr, 8)
		p.Work(30)
		if !e.writer && e.readers == 0 && !e.exWindows.covers(p.Now()) {
			e.writer = true
			e.writerPid = pid
			e.exTakenAt = p.Now()
			p.Store(e.addr, 8)
			p.Store(e.addr+8, 8)
			m.mutex.Release(p, pid)
			return
		}
		m.mutex.Release(p, pid)
		p.Backoff()
	}
}

func (m *Manager) releaseExclusive(p Proc, pid, rel int, row int64) {
	m.mutex.Acquire(p, pid)
	e := m.entry(rel, row)
	if !e.writer || e.writerPid != pid {
		panic("lock: exclusive release by non-owner")
	}
	e.writer = false
	end := p.Now()
	if end <= e.exTakenAt {
		end = e.exTakenAt + 1
	}
	e.exWindows.add(e.exTakenAt, end)
	p.Store(e.addr, 8)
	p.Work(20)
	m.mutex.Release(p, pid)
}

// AcquireExclusive takes a relation-level write lock.
func (m *Manager) AcquireExclusive(p Proc, pid, rel int) {
	m.RelationAcquires++
	m.acquireExclusive(p, pid, rel, -1)
}

// ReleaseExclusive drops a relation-level write lock.
func (m *Manager) ReleaseExclusive(p Proc, pid, rel int) {
	m.releaseExclusive(p, pid, rel, -1)
}

// AcquireRowExclusive takes a row-level write lock (the finer granularity
// PostgreSQL of the era lacked; used by the lock-granularity ablation).
func (m *Manager) AcquireRowExclusive(p Proc, pid, rel int, row int64) {
	m.RowAcquires++
	m.acquireExclusive(p, pid, rel, row)
}

// ReleaseRowExclusive drops a row-level write lock.
func (m *Manager) ReleaseRowExclusive(p Proc, pid, rel int, row int64) {
	m.releaseExclusive(p, pid, rel, row)
}

// Readers reports the current reader count on rel (tests).
func (m *Manager) Readers(rel int) int { return m.entry(rel, -1).readers }

// WriterOf reports the pid holding rel exclusively (-1 if none) — tests.
func (m *Manager) WriterOf(rel int) int {
	e := m.entry(rel, -1)
	if !e.writer {
		return -1
	}
	return e.writerPid
}
