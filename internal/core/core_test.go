package core

import (
	"testing"

	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

func measurementFixture(t *testing.T, q tpch.QueryID, procs int) Measurement {
	t.Helper()
	data := tpch.Generate(0.002, 7)
	st, err := workload.Run(workload.Options{
		Spec: machine.VClassSpec(16, 256), Data: data, Query: q,
		Processes: procs, OSTimeScale: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return FromStats(st)
}

func TestFromStatsDerivedFields(t *testing.T) {
	m := measurementFixture(t, tpch.Q6, 2)
	if m.Machine != "HP V-Class" || m.Query != "Q6" || m.Processes != 2 {
		t.Fatalf("identity: %+v", m)
	}
	if m.CPI <= 1 || m.CyclesPerMInstr <= 1e6 {
		t.Fatalf("cycle metrics: CPI=%v c/M=%v", m.CPI, m.CyclesPerMInstr)
	}
	if m.L1MissesPerM <= 0 || m.L1MissRate <= 0 || m.L1MissRate > 1 {
		t.Fatalf("miss metrics: %v %v", m.L1MissesPerM, m.L1MissRate)
	}
	sum := m.ColdFraction + m.CapacityFraction + m.CoherenceFraction
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("miss class fractions sum to %v", sum)
	}
	if m.MemLatencyMicros <= 0 || m.MemLatencyCycles/m.MemLatencyMicros != 200 {
		t.Fatalf("latency conversion: %v cycles, %v us", m.MemLatencyCycles, m.MemLatencyMicros)
	}
	if m.WallSeconds <= 0 {
		t.Fatal("wall seconds missing")
	}
}

func TestOuterMisses(t *testing.T) {
	single := Measurement{L1Misses: 10}
	if single.OuterMisses() != 10 {
		t.Fatal("single-level outer misses")
	}
	two := Measurement{L1Misses: 10, L2Misses: 3}
	if two.OuterMisses() != 3 {
		t.Fatal("two-level outer misses")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Points: []Measurement{
		{Processes: 1, CPI: 1.0},
		{Processes: 2, CPI: 1.2},
		{Processes: 4, CPI: 1.5},
	}}
	if g := s.Growth(MetricCPI); g != 1.5 {
		t.Fatalf("growth = %v", g)
	}
	if s.At(2) == nil || s.At(2).CPI != 1.2 {
		t.Fatal("At broken")
	}
	if s.At(3) != nil {
		t.Fatal("At should miss")
	}
	empty := Series{}
	if empty.Growth(MetricCPI) != 1 {
		t.Fatal("empty growth should be 1")
	}
}

// The headline comparison of the paper, as a test: at one process the two
// machines' thread cycles are close; at eight the Origin grows more in CPI.
func TestPaperHeadlineShape(t *testing.T) {
	data := tpch.Generate(0.003, 7)
	get := func(spec machine.Spec, procs int) Measurement {
		st, err := workload.Run(workload.Options{
			Spec: spec, Data: data, Query: tpch.Q6, Processes: procs, OSTimeScale: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return FromStats(st)
	}
	h1 := get(machine.VClassSpec(16, 256), 1)
	s1 := get(machine.OriginSpec(32, 256), 1)
	ratio := s1.ThreadCycles / h1.ThreadCycles
	if ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("1-process cycles should be comparable, got SGI/HPV = %.2f", ratio)
	}
	h8 := get(machine.VClassSpec(16, 256), 8)
	s8 := get(machine.OriginSpec(32, 256), 8)
	hGrowth := h8.CPI / h1.CPI
	sGrowth := s8.CPI / s1.CPI
	if sGrowth < hGrowth {
		t.Fatalf("Origin CPI growth (%.3f) should exceed V-Class (%.3f)", sGrowth, hGrowth)
	}
}
