package simos

import (
	"testing"

	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/obs"
	"dssmem/internal/perfctr"
)

func testOS(cpus int) *OS {
	m := machine.New(machine.VClassSpec(cpus, 256))
	cfg := Config{
		TimeSlice:     50_000,
		SwitchCost:    500,
		FlushFraction: 0.1,
		Backoff:       100_000,
	}
	return New(m, cfg, 1000)
}

func TestDefaultConfigScalesWithClock(t *testing.T) {
	c := DefaultConfig(200)
	if c.TimeSlice != 2_000_000 { // 10ms at 200MHz
		t.Fatalf("timeslice = %d", c.TimeSlice)
	}
	if c.Backoff != c.TimeSlice {
		t.Fatalf("backoff should be 10ms too, got %d", c.Backoff)
	}
	if c.SwitchCost != 1000 { // 5µs
		t.Fatalf("switch cost = %d", c.SwitchCost)
	}
}

func TestWorkAdvancesThreadAndWall(t *testing.T) {
	o := testOS(1)
	var p *Process
	p = o.Spawn(0, func(p *Process) {
		p.Work(10_000)
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	if p.ThreadCycles() != 10_000 || p.Now() != 10_000 {
		t.Fatalf("thread=%d wall=%d", p.ThreadCycles(), p.Now())
	}
	if p.Counters().Instructions != 10_000 {
		t.Fatalf("instr = %d", p.Counters().Instructions)
	}
}

func TestInvoluntarySwitchOnSliceExpiry(t *testing.T) {
	o := testOS(1)
	p := o.Spawn(0, func(p *Process) {
		for i := 0; i < 30; i++ {
			p.Work(10_000) // 300k cycles over a 50k slice
		}
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	if p.InvoluntarySwitches() < 4 || p.InvoluntarySwitches() > 8 {
		t.Fatalf("invol switches = %d, want ~6", p.InvoluntarySwitches())
	}
	if p.Counters().InvolCtxSwitches != p.InvoluntarySwitches() {
		t.Fatal("counter mismatch")
	}
	// Thread time includes the switch cost.
	if p.ThreadCycles() != 300_000+500*p.InvoluntarySwitches() {
		t.Fatalf("thread = %d", p.ThreadCycles())
	}
}

func TestBackoffAdvancesWallOnly(t *testing.T) {
	o := testOS(1)
	p := o.Spawn(0, func(p *Process) {
		p.Work(1000)
		p.Backoff()
		p.Work(1000)
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	if p.VoluntarySwitches() != 1 || p.Counters().LockBackoffs != 1 {
		t.Fatalf("vol = %d", p.VoluntarySwitches())
	}
	// Wall >= thread + base backoff; thread = work + switch cost only.
	if p.ThreadCycles() != 2000+500 {
		t.Fatalf("thread = %d", p.ThreadCycles())
	}
	if p.Now() < p.ThreadCycles()+100_000 {
		t.Fatalf("wall = %d, want >= thread+backoff", p.Now())
	}
}

func TestSwitchPollutesCache(t *testing.T) {
	o := testOS(1)
	var missesBefore, missesAfter uint64
	p := o.Spawn(0, func(p *Process) {
		// Warm 64 lines.
		for a := memsys.Addr(0); a < 2048; a += 32 {
			p.Load(a, 8)
		}
		missesBefore = p.Counters().L1DMisses
		p.Backoff() // flushes a fraction
		for a := memsys.Addr(0); a < 2048; a += 32 {
			p.Load(a, 8)
		}
		missesAfter = p.Counters().L1DMisses
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	_ = p
	if missesAfter == missesBefore {
		t.Fatal("context switch should cause re-fetch misses")
	}
}

func TestLoadStoreCountersFlow(t *testing.T) {
	o := testOS(2)
	done := make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		o.Spawn(i, func(p *Process) {
			p.Load(0x1000, 8)
			p.Store(0x1000, 8)
			done[i] = true
		})
	}
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	if !done[0] || !done[1] {
		t.Fatal("processes did not finish")
	}
	m := o.Machine()
	if m.Counters(0).Loads != 1 || m.Counters(1).Stores != 1 {
		t.Fatal("per-CPU counters missing events")
	}
	// CPU1 wrote a line CPU0 holds: coherence traffic must have occurred.
	d := m.Directory().Stats
	if d.InvalidationsSent+d.DirtyInterventions+d.MigratoryTransfers == 0 {
		t.Fatalf("no coherence activity: %+v", d)
	}
}

// A process's counters are its CPU's counter file, so a CPU runs one process.
func TestSpawnPanicsOnSecondProcessPerCPU(t *testing.T) {
	o := testOS(2)
	o.Spawn(0, func(*Process) {})
	o.Spawn(1, func(*Process) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a second process on CPU 0 was accepted")
		}
	}()
	o.Spawn(0, func(*Process) {})
}

func TestBlockUntil(t *testing.T) {
	o := testOS(1)
	p := o.Spawn(0, func(p *Process) {
		p.Work(10)
		p.BlockUntil(5000)
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Now() != 5000 || p.ThreadCycles() != 10 {
		t.Fatalf("wall=%d thread=%d", p.Now(), p.ThreadCycles())
	}
}

func TestSpinChargesInstructions(t *testing.T) {
	o := testOS(1)
	p := o.Spawn(0, func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Spin()
		}
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Counters().SpinIterations != 10 || p.Counters().Instructions != 40 {
		t.Fatalf("counters: %+v", p.Counters())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() uint64 {
		o := testOS(4)
		for i := 0; i < 4; i++ {
			o.Spawn(i, func(p *Process) {
				for j := 0; j < 50; j++ {
					p.Load(memsys.Addr(j*32), 8)
					p.Work(100)
				}
			})
		}
		if err := o.Run(); err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, p := range o.Processes() {
			sum += p.ThreadCycles() * uint64(p.CPU+1)
		}
		return sum
	}
	if run() != run() {
		t.Fatal("simulation is not deterministic")
	}
}

func TestDefaultConfigScaledBackoff(t *testing.T) {
	base := DefaultConfigScaled(200, 1)
	scaled := DefaultConfigScaled(200, 32)
	if scaled.Backoff != base.Backoff/32 {
		t.Fatalf("backoff = %d, want %d", scaled.Backoff, base.Backoff/32)
	}
	// The time slice is intentionally NOT scaled.
	if scaled.TimeSlice != base.TimeSlice {
		t.Fatal("time slice must not scale")
	}
	// Floor: a huge scale never drops the backoff below 1000 cycles.
	if DefaultConfigScaled(200, 1<<20).Backoff != 1000 {
		t.Fatal("backoff floor missing")
	}
	if DefaultConfigScaled(200, 0).Backoff != base.Backoff {
		t.Fatal("scale 0 should clamp to 1")
	}
}

func TestSeedPerturbsBackoffJitter(t *testing.T) {
	run := func(seed uint64) uint64 {
		m := machine.New(machine.VClassSpec(1, 256))
		cfg := Config{TimeSlice: 1 << 40, SwitchCost: 100, Backoff: 10_000, Seed: seed}
		o := New(m, cfg, 0)
		p := o.Spawn(0, func(p *Process) {
			p.Backoff()
			p.Backoff()
		})
		if err := o.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Now()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds should change backoff jitter")
	}
	if run(3) != run(3) {
		t.Fatal("same seed must reproduce")
	}
}

func TestRegionClassifierCounts(t *testing.T) {
	m := machine.New(machine.VClassSpec(1, 256))
	o := New(m, DefaultConfig(200), 0)
	ob := obs.New(obs.Config{Regions: true})
	ob.Bind(1, 200)
	ob.BindRegions(func(a memsys.Addr) perfctr.Region {
		if _, priv := memsys.IsPrivate(a); priv {
			return perfctr.RegionPrivate
		}
		return perfctr.RegionRecord
	})
	o.Observe(ob)
	o.Spawn(0, func(p *Process) {
		p.Load(0x100, 8)                      // shared -> record
		p.Load(memsys.PrivateBase(0)+64, 8)   // private
		p.Store(memsys.PrivateBase(0)+128, 8) // private
	})
	if err := o.Run(); err != nil {
		t.Fatal(err)
	}
	reg := ob.Regions()
	if reg.Accesses[perfctr.RegionRecord] != 1 ||
		reg.Accesses[perfctr.RegionPrivate] != 2 {
		t.Fatalf("region accesses: %+v", reg.Accesses)
	}
	// All three were cold misses; the classifier must attribute them.
	if reg.L1Misses[perfctr.RegionRecord] != 1 ||
		reg.L1Misses[perfctr.RegionPrivate] != 2 {
		t.Fatalf("region misses: %+v", reg.L1Misses)
	}
}
