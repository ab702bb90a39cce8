package lock

import (
	"testing"

	"dssmem/internal/memsys"
)

// fakeProc is a minimal Proc for unit tests: time advances with work.
type fakeProc struct {
	now      uint64
	loads    int
	stores   int
	spins    int
	backoffs int
}

func (f *fakeProc) Load(memsys.Addr, int)  { f.loads++; f.now += 2 }
func (f *fakeProc) Store(memsys.Addr, int) { f.stores++; f.now += 2 }
func (f *fakeProc) Work(n uint64)          { f.now += n }
func (f *fakeProc) Spin()                  { f.spins++; f.now += 4 }
func (f *fakeProc) Backoff()               { f.backoffs++; f.now += 10_000 }
func (f *fakeProc) Now() uint64            { return f.now }

func TestSpinLockBasic(t *testing.T) {
	l := NewSpinLock(0x100)
	p := &fakeProc{}
	l.Acquire(p, 1)
	if !l.held || l.owner != 1 {
		t.Fatalf("held = %v, owner = %d", l.held, l.owner)
	}
	l.Release(p, 1)
	if l.held || l.owner != -1 {
		t.Fatal("not released")
	}
	if l.Acquires != 1 || l.Contended != 0 {
		t.Fatalf("stats: %+v", *l)
	}
	if p.loads == 0 || p.stores == 0 {
		t.Fatal("lock word traffic not charged")
	}
}

func TestSpinLockContentionWhileHeld(t *testing.T) {
	l := NewSpinLock(0x100)
	a, b := &fakeProc{}, &fakeProc{}
	l.Acquire(a, 1)
	if l.TryAcquire(b, 2) {
		t.Fatal("acquired a held lock")
	}
	held := l.acquiredAt
	l.Release(a, 1)
	// b's clock inside a's hold window (minus the lock-word load it charges
	// before checking): blocked.
	b.now = held - 2
	if l.TryAcquire(b, 2) {
		t.Fatal("acquired inside the previous hold window")
	}
	b.now = a.now + 1
	if !l.TryAcquire(b, 2) {
		t.Fatal("free lock not acquired")
	}
}

func TestSpinLockBacksOffAfterSpinLimit(t *testing.T) {
	l := NewSpinLock(0x100)
	l.SpinLimit = 5
	a := &fakeProc{}
	l.Acquire(a, 1)
	l.Release(a, 1)
	// Record a long historical hold; a process inside it must spin/back off
	// until its clock passes the window.
	b := &fakeProc{}
	l.windows.add(0, 60_000)
	l.Acquire(b, 2)
	if b.backoffs == 0 {
		t.Fatal("expected at least one backoff")
	}
	if b.spins == 0 {
		t.Fatal("expected spinning before backoff")
	}
	if l.Contended == 0 {
		t.Fatal("contention not recorded")
	}
}

func TestSpinLockReleaseByNonOwnerPanics(t *testing.T) {
	l := NewSpinLock(0)
	p := &fakeProc{}
	l.Acquire(p, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Release(p, 2)
}

func TestManagerSharedLocksNeverBlock(t *testing.T) {
	m := NewManager(0x1000, 16)
	procs := make([]*fakeProc, 8)
	for i := range procs {
		procs[i] = &fakeProc{now: uint64(i) * 10}
		m.AcquireShared(procs[i], i, 42)
	}
	if m.Readers(42) != 8 {
		t.Fatalf("readers = %d", m.Readers(42))
	}
	for i, p := range procs {
		m.ReleaseShared(p, i, 42)
	}
	if m.Readers(42) != 0 {
		t.Fatal("readers not drained")
	}
	if m.RelationAcquires != 8 {
		t.Fatalf("stats: %d", m.RelationAcquires)
	}
}

func TestManagerEntriesGetDistinctAddresses(t *testing.T) {
	m := NewManager(0x1000, 16)
	p := &fakeProc{}
	m.AcquireShared(p, 0, 1)
	m.AcquireShared(p, 0, 2)
	if m.entry(1, -1).addr == m.entry(2, -1).addr {
		t.Fatal("lock entries alias")
	}
}

func TestManagerReleaseUnderflowPanics(t *testing.T) {
	m := NewManager(0x1000, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReleaseShared(&fakeProc{}, 0, 7)
}

func TestManagerGeneratesSharedTableWrites(t *testing.T) {
	m := NewManager(0x1000, 16)
	p := &fakeProc{}
	m.AcquireShared(p, 0, 42)
	if p.stores < 3 { // mutex TAS + grant + proclock record
		t.Fatalf("stores = %d, want >= 3 (lock metadata writes)", p.stores)
	}
}

func TestManagerExclusiveBlocksReaders(t *testing.T) {
	m := NewManager(0x1000, 16)
	w := &fakeProc{}
	m.AcquireExclusive(w, 1, 42)
	if e := m.entry(42, -1); !e.writer || e.writerPid != 1 {
		t.Fatalf("writer = %v, pid = %d", e.writer, e.writerPid)
	}
	w.Work(5000)
	m.ReleaseExclusive(w, 1, 42)
	if m.entry(42, -1).writer {
		t.Fatal("writer not released")
	}
	// A reader attempting inside the writer's hold window must back off.
	r := &fakeProc{now: 100}
	m.AcquireShared(r, 2, 42)
	if r.backoffs == 0 && r.now < 5000 {
		t.Fatal("reader ignored the exclusive window")
	}
	m.ReleaseShared(r, 2, 42)
}

func TestManagerExclusiveBlocksExclusive(t *testing.T) {
	m := NewManager(0x1000, 16)
	a := &fakeProc{}
	m.AcquireExclusive(a, 1, 7)
	a.Work(9000)
	m.ReleaseExclusive(a, 1, 7)
	b := &fakeProc{} // inside a's window
	m.AcquireExclusive(b, 2, 7)
	if b.backoffs == 0 && b.now < 9000 {
		t.Fatal("second writer ignored the window")
	}
	m.ReleaseExclusive(b, 2, 7)
}

func TestManagerRowLocksIndependent(t *testing.T) {
	m := NewManager(0x1000, 16)
	a := &fakeProc{}
	m.AcquireRowExclusive(a, 1, 42, 100)
	// Start b past a's LockMgr-mutex hold window so only row-lock conflicts
	// could block it.
	b := &fakeProc{now: a.now + 100}
	m.AcquireRowExclusive(b, 2, 42, 200) // different row: no blocking
	if b.backoffs != 0 {
		t.Fatal("distinct rows should not conflict")
	}
	m.ReleaseRowExclusive(a, 1, 42, 100)
	m.ReleaseRowExclusive(b, 2, 42, 200)
	if m.RowAcquires != 2 {
		t.Fatalf("row acquires = %d", m.RowAcquires)
	}
}

func TestManagerExclusiveReleaseByNonOwnerPanics(t *testing.T) {
	m := NewManager(0x1000, 16)
	p := &fakeProc{}
	m.AcquireExclusive(p, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReleaseExclusive(p, 2, 5)
}
