package machine

import (
	"reflect"
	"strings"
	"testing"

	"dssmem/internal/cache"
	"dssmem/internal/memsys"
)

func TestStallAccounting(t *testing.T) {
	m := tinyVClass(1)
	m.Access(0, 0x1000, 8, false, 0)
	ct := m.Counters(0)
	if ct.StallCycles == 0 || ct.MemLatencyCycles == 0 || ct.MemRequests != 1 {
		t.Fatalf("stall accounting: %+v", ct)
	}
	// Stall is the configured fraction of the full latency.
	want := uint64(float64(ct.MemLatencyCycles)*m.Spec().ReadStallFactor + 0.5)
	if ct.StallCycles != want {
		t.Fatalf("stall = %d, want %d", ct.StallCycles, want)
	}
}

func TestWriteStallCheaperThanReadStall(t *testing.T) {
	m := tinyVClass(2)
	rd := m.Access(0, 0x1000, 8, false, 0)
	// Well-separated in time so the controller queue model sees no burst.
	wr := m.Access(1, 0x2000, 8, true, 1_000_000)
	if wr >= rd {
		t.Fatalf("write miss (%d) should stall less than read miss (%d)", wr, rd)
	}
}

func TestUpgradeCountsAndDirties(t *testing.T) {
	m := tinyVClass(2)
	addr := memsys.Addr(0x3000)
	m.Access(0, addr, 8, false, 0)
	m.Access(1, addr, 8, false, 10) // now shared S/S
	m.Access(0, addr, 8, true, 20)  // upgrade
	ct := m.Counters(0)
	if ct.Upgrades != 1 {
		t.Fatalf("upgrades = %d", ct.Upgrades)
	}
	if m.L1(0).StateOf(uint64(addr)/32) != cache.Modified {
		t.Fatal("upgrade did not leave M")
	}
	if m.L1(1).StateOf(uint64(addr)/32) != cache.Invalid {
		t.Fatal("other sharer survived the upgrade")
	}
}

func TestOriginSubLineWriteVisibleAtProtocolGranularity(t *testing.T) {
	m := tinyOrigin(2)
	// Write one 32B sub-block; then have the peer read a DIFFERENT sub-block
	// of the same 128B protocol line: it must see a dirty intervention.
	m.Access(0, 0x8000, 8, true, 0)
	m.Access(1, 0x8000+96, 8, false, 100)
	if m.Counters(1).Dirty3HopMisses != 1 {
		t.Fatalf("false sharing at protocol granularity missed: %+v", m.Counters(1))
	}
}

func TestFlushWritebacksDirtyLines(t *testing.T) {
	m := tinyVClass(1)
	for a := memsys.Addr(0); a < 2048; a += 32 {
		m.Access(0, a, 8, true, 0)
	}
	wbBefore := m.Directory().Stats.Writebacks
	m.FlushFraction(0, 1.0, 100)
	if m.Directory().Stats.Writebacks <= wbBefore {
		t.Fatal("full flush of dirty lines produced no writebacks")
	}
	if m.L1(0).ValidLines() != 0 {
		t.Fatal("full flush left lines")
	}
}

func TestCountersPerCPUIndependent(t *testing.T) {
	m := tinyVClass(4)
	m.Access(2, 0x100, 8, false, 0)
	for c := 0; c < 4; c++ {
		want := uint64(0)
		if c == 2 {
			want = 1
		}
		if m.Counters(c).Loads != want {
			t.Fatalf("cpu %d loads = %d", c, m.Counters(c).Loads)
		}
	}
}

func TestOriginWallClockFaster(t *testing.T) {
	v := tinyVClass(1)
	o := tinyOrigin(1)
	// Equal cycles, different clocks: the Origin finishes sooner.
	if o.CyclesToSeconds(1_000_000) >= v.CyclesToSeconds(1_000_000) {
		t.Fatal("250MHz machine should convert cycles to fewer seconds")
	}
}

func TestSpecCPULimit(t *testing.T) {
	s := VClassSpec(16, 256)
	s.CPUs = 65
	if err := s.Validate(); err == nil {
		t.Fatal("65 CPUs should exceed the sharers-bitmask limit")
	}
	s.CPUs = 0
	if err := s.Validate(); err == nil {
		t.Fatal("0 CPUs accepted")
	}
}

func TestL2LineSmallerThanL1Rejected(t *testing.T) {
	s := OriginSpec(4, 256)
	l2 := *s.L2
	l2.LineSize = 16
	s.L2 = &l2
	if err := s.Validate(); err == nil {
		t.Fatal("L2 line < L1 line accepted")
	}
}

func TestAccessSizeZeroTreatedAsOne(t *testing.T) {
	m := tinyVClass(1)
	m.Access(0, 0x40, 0, false, 0)
	if m.Counters(0).L1DMisses != 1 {
		t.Fatal("zero-size access mishandled")
	}
}

func TestSequentialScanMissRatioMatchesLineSize(t *testing.T) {
	// 8-byte strided reads over a large region: exactly one miss per 32B line.
	m := tinyVClass(1)
	const span = 1 << 16
	for a := memsys.Addr(0); a < span; a += 8 {
		m.Access(0, a, 8, false, uint64(a))
	}
	ct := m.Counters(0)
	wantMisses := uint64(span / 32)
	if ct.L1DMisses < wantMisses || ct.L1DMisses > wantMisses+16 {
		t.Fatalf("misses = %d, want ~%d", ct.L1DMisses, wantMisses)
	}
	// Miss classification: a cold scan is all cold misses.
	if ct.CoherenceMisses != 0 {
		t.Fatal("cold scan saw coherence misses")
	}
}

func TestOrigin128ByteLinesQuarterTheMisses(t *testing.T) {
	o := tinyOrigin(1)
	const span = 1 << 16
	for a := memsys.Addr(0); a < span; a += 8 {
		o.Access(0, a, 8, false, uint64(a))
	}
	ct := o.Counters(0)
	l1Want := uint64(span / 32)
	l2Want := uint64(span / 128)
	if ct.L1DMisses < l1Want || ct.L1DMisses > l1Want+16 {
		t.Fatalf("L1 misses = %d, want ~%d", ct.L1DMisses, l1Want)
	}
	if ct.L2DMisses < l2Want || ct.L2DMisses > l2Want+16 {
		t.Fatalf("L2 misses = %d, want ~%d (128B lines)", ct.L2DMisses, l2Want)
	}
}

func TestStarfireSpec(t *testing.T) {
	s := StarfireSpec(64, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.L2 == nil || s.L2.LineSize != 64 || s.Net != NetCrossbar {
		t.Fatalf("spec: %+v", s)
	}
	if s.Protocol.Migratory || s.Protocol.Speculative {
		t.Fatal("Starfire should be plain MESI")
	}
	m := New(StarfireSpec(8, 256))
	m.Access(0, 0x1000, 8, false, 0)
	ct := m.Counters(0)
	if ct.L1DMisses != 1 || ct.L2DMisses != 1 {
		t.Fatalf("counters: %+v", ct)
	}
}

func TestSpecByName(t *testing.T) {
	for _, c := range []struct {
		name  string
		cpus  int
		scale int
		want  Spec
	}{
		{"", 0, 64, VClassSpec(16, 64)},
		{"vclass", 0, 64, VClassSpec(16, 64)},
		{"hpv", 4, 64, VClassSpec(4, 64)},
		{"V-Class", 0, 64, VClassSpec(16, 64)},
		{"origin", 0, 64, OriginSpec(32, 64)},
		{"SGI", 8, 64, OriginSpec(8, 64)},
		{"Origin2000", 0, 64, OriginSpec(32, 64)},
		{"starfire", 0, 64, StarfireSpec(64, 64)},
		{"E10000", 2, 64, StarfireSpec(2, 64)},
		{"origin", 0, 1, OriginSpec(32, 1)},
	} {
		s, err := SpecByName(c.name, c.cpus, c.scale)
		if err != nil || !reflect.DeepEqual(s, c.want) {
			t.Errorf("%q/%d/%d: %s with %d CPUs (err %v), want %s with %d",
				c.name, c.cpus, c.scale, s.Name, s.CPUs, err, c.want.Name, c.want.CPUs)
		}
	}
	for _, c := range []struct {
		name    string
		cpus    int
		scale   int
		wantErr string
	}{
		{"cray", 0, 64, `unknown machine "cray" (vclass|origin|starfire)`},
		{"v class", 0, 64, "unknown machine"},
		{"vclass", 65, 64, "CPUs must be 1..64"},
		{"origin", 100, 64, "CPUs must be 1..64"},
		{"starfire", -1, 64, "bad cpus -1"},
		{"vclass", 0, 0, "bad memory scale 0"},
		{"origin", 0, -4, "bad memory scale -4"},
	} {
		if _, err := SpecByName(c.name, c.cpus, c.scale); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q/%d/%d: error %v, want one containing %q", c.name, c.cpus, c.scale, err, c.wantErr)
		}
	}
}
