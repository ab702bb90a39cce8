package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyKernel(t *testing.T) {
	if err := NewKernel(0).Run(); err != nil {
		t.Fatalf("empty kernel: %v", err)
	}
}

func TestSingleProcessAdvances(t *testing.T) {
	k := NewKernel(100)
	p := k.Spawn(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(7)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Now(), Clock(7000); got != want {
		t.Fatalf("clock = %d, want %d", got, want)
	}
}

func TestAdvanceTo(t *testing.T) {
	k := NewKernel(0)
	p := k.Spawn(func(p *Proc) {
		p.AdvanceTo(500)
		p.AdvanceTo(100) // backwards: no-op
		p.AdvanceTo(501)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Now() != 501 {
		t.Fatalf("clock = %d, want 501", p.Now())
	}
}

// TestMinClockOrdering verifies that the process with the smallest clock is
// always the one scheduled, so a slow process interleaves densely between
// quanta of a fast one.
func TestMinClockOrdering(t *testing.T) {
	k := NewKernel(10)
	var order []int
	record := func(id int) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, id)
				p.Advance(10) // exactly one quantum
			}
		}
	}
	k.Spawn(record(0))
	k.Spawn(record(1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestDeterminism runs the same randomized workload twice and requires
// identical final clocks and interleavings.
func TestDeterminism(t *testing.T) {
	run := func() ([]Clock, []int) {
		k := NewKernel(50)
		var trace []int
		procs := make([]*Proc, 4)
		for i := 0; i < 4; i++ {
			i := i
			procs[i] = k.Spawn(func(p *Proc) {
				seed := uint64(i + 1)
				for j := 0; j < 200; j++ {
					seed = seed*6364136223846793005 + 1442695040888963407
					trace = append(trace, i)
					p.Advance(Clock(seed%97 + 1))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		clocks := make([]Clock, 4)
		for i, p := range procs {
			clocks[i] = p.Now()
		}
		return clocks, trace
	}
	c1, t1 := run()
	c2, t2 := run()
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("clocks differ: %v vs %v", c1, c2)
		}
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// TestClockSkewBound: at any yield, no process can be behind the running
// process by more than one quantum, because the kernel always resumes the
// minimum clock.
func TestClockSkewBound(t *testing.T) {
	const quantum = 64
	k := NewKernel(quantum)
	procs := make([]*Proc, 3)
	maxSkew := Clock(0)
	for i := range procs {
		i := i
		procs[i] = k.Spawn(func(p *Proc) {
			for j := 0; j < 500; j++ {
				p.Advance(Clock((i*13+j*7)%30 + 1))
				// When this process is running, its clock may exceed others'
				// by at most quantum + one advance step.
				for _, q := range procs {
					if q != nil && q.clock < p.clock && p.clock-q.clock > maxSkew {
						maxSkew = p.clock - q.clock
					}
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Skew observed mid-run is bounded by quantum plus the largest single
	// advance (30) plus the other process's own pending advance; allow 2x.
	if maxSkew > 2*quantum+60 {
		t.Fatalf("clock skew %d exceeds bound", maxSkew)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := NewKernel(0)
	k.Spawn(func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	k.Spawn(func(p *Proc) {
		for {
			p.Advance(1)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic containing boom", err)
	}
}

func TestKilledProcessesDoNotReportError(t *testing.T) {
	k := NewKernel(5)
	k.Spawn(func(p *Proc) {
		p.Advance(1)
		panic("first")
	})
	for i := 0; i < 3; i++ {
		k.Spawn(func(p *Proc) {
			for {
				p.Advance(1)
			}
		})
	}
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "first") {
		t.Fatalf("err = %v, want the first panic only", err)
	}
	if errors.Is(err, ErrKilled) {
		t.Fatalf("kill sentinel leaked into the reported error: %v", err)
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	k := NewKernel(0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Spawn after Run")
		}
	}()
	k.Spawn(func(*Proc) {})
}

func TestOnYieldHook(t *testing.T) {
	k := NewKernel(10)
	var yields int
	k.Spawn(func(p *Proc) {
		p.OnYield = func(Clock) { yields++ }
		for i := 0; i < 5; i++ {
			p.Advance(10)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if yields != 5 {
		t.Fatalf("yields = %d, want 5", yields)
	}
}

// Property: total advanced cycles always equals the final clock, regardless of
// the advance pattern.
func TestAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		if len(steps) > 2000 {
			steps = steps[:2000]
		}
		k := NewKernel(33)
		var sum Clock
		p := k.Spawn(func(p *Proc) {
			for _, s := range steps {
				sum += Clock(s)
				p.Advance(Clock(s))
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return p.Now() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with N identical processes, all finish with identical clocks.
func TestSymmetryProperty(t *testing.T) {
	f := func(n uint8, step uint8) bool {
		nn := int(n%6) + 1
		st := Clock(step%50) + 1
		k := NewKernel(100)
		procs := make([]*Proc, nn)
		for i := 0; i < nn; i++ {
			procs[i] = k.Spawn(func(p *Proc) {
				for j := 0; j < 300; j++ {
					p.Advance(st)
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for _, p := range procs {
			if p.Now() != procs[0].Now() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
