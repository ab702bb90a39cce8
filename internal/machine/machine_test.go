package machine

import (
	"fmt"
	"testing"
	"testing/quick"

	"dssmem/internal/cache"
	"dssmem/internal/memsys"
)

// tinyVClass returns a scaled-down V-Class for fast tests.
func tinyVClass(cpus int) *Machine { return New(VClassSpec(cpus, 256)) }

// tinyOrigin returns a scaled-down Origin for fast tests.
func tinyOrigin(cpus int) *Machine { return New(OriginSpec(cpus, 256)) }

func TestSpecConstruction(t *testing.T) {
	v := VClassSpec(16, 1)
	if v.L1.Size != 2<<20 || v.L2 != nil || !v.Protocol.Migratory {
		t.Fatalf("vclass spec: %+v", v)
	}
	o := OriginSpec(32, 1)
	if o.L2 == nil || o.L2.LineSize != 128 || !o.Protocol.Speculative {
		t.Fatalf("origin spec: %+v", o)
	}
	if o.MemNodes != 16 {
		t.Fatalf("origin nodes = %d, want 16", o.MemNodes)
	}
}

func TestScaledGeometryStaysValid(t *testing.T) {
	for _, scale := range []int{1, 4, 16, 64, 256, 4096} {
		for _, s := range []Spec{VClassSpec(8, scale), OriginSpec(8, scale)} {
			if err := s.Validate(); err != nil {
				t.Fatalf("scale %d, %s: %v", scale, s.Name, err)
			}
			New(s) // must not panic
		}
	}
}

func TestCPUNodeMapping(t *testing.T) {
	o := OriginSpec(8, 256)
	if o.CPUNode(0) != 0 || o.CPUNode(1) != 0 || o.CPUNode(2) != 1 || o.CPUNode(7) != 3 {
		t.Fatal("origin CPUs must pack two per node")
	}
}

func TestFirstAccessMissesThenHits(t *testing.T) {
	m := tinyVClass(2)
	c1 := m.Access(0, 0x1000, 8, false, 0)
	c2 := m.Access(0, 0x1000, 8, false, 100)
	if c1 <= c2 {
		t.Fatalf("miss (%d cycles) should cost more than hit (%d)", c1, c2)
	}
	ct := m.Counters(0)
	if ct.L1DMisses != 1 || ct.Loads != 2 || ct.MemRequests != 1 {
		t.Fatalf("counters: %+v", ct)
	}
}

func TestSpatialLocalityWithinLine(t *testing.T) {
	m := tinyVClass(1)
	m.Access(0, 0x2000, 4, false, 0)
	m.Access(0, 0x2004, 4, false, 10) // same 32B line
	if m.Counters(0).L1DMisses != 1 {
		t.Fatalf("misses = %d, want 1", m.Counters(0).L1DMisses)
	}
}

func TestStraddlingAccessTouchesBothLines(t *testing.T) {
	m := tinyVClass(1)
	m.Access(0, 0x2000+30, 4, false, 0) // crosses a 32B boundary
	if m.Counters(0).L1DMisses != 2 {
		t.Fatalf("misses = %d, want 2", m.Counters(0).L1DMisses)
	}
}

func TestOriginL2Hierarchy(t *testing.T) {
	m := tinyOrigin(2)
	m.Access(0, 0x4000, 8, false, 0)
	ct := m.Counters(0)
	if ct.L1DMisses != 1 || ct.L2DMisses != 1 {
		t.Fatalf("counters: %+v", ct)
	}
	// The directory grants an uncached line Exclusive; L1 installs the grant.
	if st := m.L1(0).StateOf(0x4000 / 32); st != cache.Exclusive {
		t.Fatalf("L1 state after a read miss = %v, want E", st)
	}
	// A different 32B L1 line inside the same 128B L2 line: L1 miss, L2 hit.
	m.Access(0, 0x4000+64, 8, false, 100)
	if ct.L1DMisses != 2 || ct.L2DMisses != 1 {
		t.Fatalf("counters after L2 hit: %+v", ct)
	}
}

func TestWriteMakesLineDirtyThroughHierarchy(t *testing.T) {
	m := tinyOrigin(2)
	m.Access(0, 0x4000, 8, true, 0)
	l2line := uint64(0x4000) / 128
	if m.L2(0).StateOf(l2line) != cache.Modified {
		t.Fatalf("L2 state = %v, want M", m.L2(0).StateOf(l2line))
	}
	// A remote read must see the dirty line (3-hop intervention).
	m.Access(1, 0x4000, 8, false, 1000)
	if m.Counters(1).Dirty3HopMisses != 1 {
		t.Fatalf("remote reader counters: %+v", m.Counters(1))
	}
}

func TestRemoteInvalidationReachesL1(t *testing.T) {
	m := tinyOrigin(2)
	m.Access(0, 0x4000, 8, false, 0) // CPU0 caches the line (L1+L2)
	m.Access(1, 0x4000, 8, true, 10) // CPU1 writes: CPU0 must lose both levels
	l1line := uint64(0x4000) / 32
	l2line := uint64(0x4000) / 128
	if m.L1(0).StateOf(l1line) != cache.Invalid || m.L2(0).StateOf(l2line) != cache.Invalid {
		t.Fatal("stale copies survived a remote write")
	}
	// CPU0's next read is a coherence miss.
	m.Access(0, 0x4000, 8, false, 2000)
	if m.Counters(0).CoherenceMisses != 1 {
		t.Fatalf("counters: %+v", m.Counters(0))
	}
}

func TestMigratoryVClassLockPattern(t *testing.T) {
	// Lock-style read-modify-write ping-pong between two CPUs: after the
	// pattern detector has seen one read-then-upgrade hand-off, the migratory
	// enhancement makes each further hand-off a single transaction (the read
	// miss already grants ownership).
	m := tinyVClass(2)
	addr := memsys.Addr(0x8000)
	m.Access(0, addr, 8, false, 0)
	m.Access(0, addr, 8, true, 10)
	// Training hand-off: plain MESI downgrade, then an upgrade that marks
	// the line migratory.
	m.Access(1, addr, 8, false, 20)
	m.Access(1, addr, 8, true, 30)
	base := m.Directory().Stats
	m.Access(0, addr, 8, false, 40) // migrates dirty line with ownership
	m.Access(0, addr, 8, true, 50)  // pure cache hit
	d := m.Directory().Stats
	if d.MigratoryTransfers != base.MigratoryTransfers+1 {
		t.Fatalf("no migratory transfer: %+v", d)
	}
	if got := d.Reads + d.Writes + d.Upgrades - (base.Reads + base.Writes + base.Upgrades); got != 1 {
		t.Fatalf("lock handoff took %d transactions, want 1", got)
	}
}

func TestMigratoryNotAppliedToWriteOnceData(t *testing.T) {
	// A line written once and then only read (hint-bit pattern) must NOT
	// migrate: readers share it and later readers are served from memory.
	m := tinyVClass(4)
	addr := memsys.Addr(0x9000)
	m.Access(0, addr, 8, true, 0) // writer
	m.Access(1, addr, 8, false, 100)
	m.Access(2, addr, 8, false, 200)
	d := m.Directory().Stats
	if d.MigratoryTransfers != 0 {
		t.Fatalf("write-once line migrated: %+v", d)
	}
	if m.L1(1).StateOf(uint64(addr)/32) != cache.Shared {
		t.Fatal("first reader should end Shared")
	}
}

func TestNonMigratoryCostsTwoTransactions(t *testing.T) {
	spec := VClassSpec(2, 256)
	spec.Protocol.Migratory = false
	m := New(spec)
	addr := memsys.Addr(0x8000)
	m.Access(0, addr, 8, false, 0)
	m.Access(0, addr, 8, true, 10)
	base := m.Directory().Stats
	m.Access(1, addr, 8, false, 20) // downgrade to S/S
	m.Access(1, addr, 8, true, 30)  // upgrade: second transaction
	d := m.Directory().Stats
	if got := d.Reads + d.Writes + d.Upgrades - (base.Reads + base.Writes + base.Upgrades); got != 2 {
		t.Fatalf("lock handoff took %d transactions, want 2", got)
	}
}

func TestInstrCycles(t *testing.T) {
	m := tinyVClass(1)
	cyc := m.InstrCycles(0, 1000)
	if cyc != 1000 { // BaseCPI = 1.0
		t.Fatalf("cycles = %d", cyc)
	}
	if m.Counters(0).Instructions != 1000 || m.Counters(0).Cycles != 1000 {
		t.Fatalf("counters: %+v", m.Counters(0))
	}
}

func TestFlushFractionPollutesAndStaysCoherent(t *testing.T) {
	m := tinyOrigin(2)
	for a := memsys.Addr(0); a < 4096; a += 32 {
		m.Access(0, a, 8, true, 0)
	}
	before := m.L1(0).ValidLines()
	m.FlushFraction(0, 0.5, 100)
	if m.L1(0).ValidLines() >= before {
		t.Fatal("flush did not displace lines")
	}
	// After pollution the directory must still serve other CPUs correctly.
	for a := memsys.Addr(0); a < 4096; a += 32 {
		m.Access(1, a, 8, false, 200)
	}
}

func TestResetCounters(t *testing.T) {
	m := tinyVClass(1)
	m.Access(0, 0x100, 8, false, 0)
	m.ResetCounters()
	if m.Counters(0).Loads != 0 || m.Counters(0).Cycles != 0 {
		t.Fatal("counters not reset")
	}
}

func TestCyclesToSeconds(t *testing.T) {
	m := tinyVClass(1)
	if got := m.CyclesToSeconds(200_000_000); got != 1.0 {
		t.Fatalf("200M cycles at 200MHz = %v s", got)
	}
}

func TestOriginRemoteCostsMoreThanLocal(t *testing.T) {
	// Private data homed on the owner's node (local) vs another process's
	// node (remote): local fetch must be cheaper.
	m := tinyOrigin(8)
	local := memsys.Addr(memsys.PrivateBase(0))  // home = node of CPU 0
	remote := memsys.Addr(memsys.PrivateBase(7)) // home = node of CPU 3
	c1 := m.Access(0, local, 8, false, 0)
	c2 := m.Access(0, remote, 8, false, 1000)
	if c2 <= c1 {
		t.Fatalf("remote (%d) should cost more than local (%d)", c2, c1)
	}
}

// Property: for random access streams the counter identities hold:
// loads+stores = memory instructions; classified misses = MemRequests minus
// upgrades... (upgrades are classified separately as Capacity inside the
// directory but machine counters only classify outer misses).
func TestCounterIdentities(t *testing.T) {
	f := func(ops []uint16) bool {
		m := tinyOrigin(2)
		now := uint64(0)
		for _, op := range ops {
			cpu := int(op & 1)
			addr := memsys.Addr(op&0x0ffc) * 8
			m.Access(cpu, addr, 4, op&2 != 0, now)
			now += 50
		}
		var loads, stores, instr uint64
		for c := 0; c < 2; c++ {
			ct := m.Counters(c)
			loads += ct.Loads
			stores += ct.Stores
			instr += ct.Instructions
			if ct.L2DMisses > ct.L1DMisses {
				return false
			}
			if ct.Cycles < ct.Instructions { // BaseCPI >= 1
				return false
			}
		}
		return loads+stores == uint64(len(ops)) && instr == uint64(len(ops))
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: after every reference of any interleaving, on each two-level
// machine of referenceSpecs, each protocol (L2) line has at most one E or M
// holder and never one beside an S holder; every valid L1 line lies under a
// valid L2 line; and every Modified L1 line lies under a Modified L2 line,
// which is why an L1 victim never needs a write-back.
func TestMachineMESIInvariant(t *testing.T) {
	for _, spec := range referenceSpecs(4) {
		if spec.L2 == nil {
			continue
		}
		f := func(ops []uint16) bool {
			m := New(spec)
			now := uint64(0)
			l1Lines, l2Lines := map[uint64]bool{}, map[uint64]bool{}
			for _, op := range ops {
				cpu := int(op & 3)
				addr := uint64(op>>2)%32*128 + uint64(op>>7&3)*32
				m.Access(cpu, memsys.Addr(addr), 8, op&0x400 != 0, now)
				l1Lines[m.L1(0).LineOf(addr)] = true
				l2Lines[m.L2(0).LineOf(addr)] = true
				now += 25
				if err := checkHierarchy(m, l1Lines, l2Lines); err != nil {
					t.Logf("%s: %v", spec.Name, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

// checkHierarchy checks the single-writer and inclusion invariants of a
// two-level machine over the given L1 and L2 lines.
func checkHierarchy(m *Machine, l1Lines, l2Lines map[uint64]bool) error {
	spec := m.Spec()
	for line := range l2Lines {
		owners, sharers := 0, 0
		for c := 0; c < spec.CPUs; c++ {
			switch m.L2(c).StateOf(line) {
			case cache.Exclusive, cache.Modified:
				owners++
			case cache.Shared:
				sharers++
			}
		}
		if owners > 1 || (owners == 1 && sharers > 0) {
			return fmt.Errorf("L2 line %#x: %d owners, %d sharers", line, owners, sharers)
		}
	}
	ratio := uint64(spec.L2.LineSize / spec.L1.LineSize)
	for line := range l1Lines {
		for c := 0; c < spec.CPUs; c++ {
			st1, st2 := m.L1(c).StateOf(line), m.L2(c).StateOf(line/ratio)
			if st1 != cache.Invalid && st2 == cache.Invalid {
				return fmt.Errorf("cpu %d: L1 line %#x %v but its L2 line absent", c, line, st1)
			}
			if st1 == cache.Modified && st2 != cache.Modified {
				return fmt.Errorf("cpu %d: L1 line %#x Modified but L2 line %v", c, line, st2)
			}
		}
	}
	return nil
}
