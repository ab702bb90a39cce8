// Package core is the paper's primary contribution as a library: the
// cross-platform memory-system characterization of DSS workloads. It turns
// raw workload runs into the metrics the paper reports (thread time, CPI,
// miss rates and classes, memory latency, context-switch rates) and
// organizes them into the figure series of the evaluation, whose growth
// across process counts the paper's analysis compares.
package core

import (
	"math"

	"dssmem/internal/workload"
)

// Measurement is one experimental cell: one machine, one query, one degree of
// multiprogramming — averaged over processes, exactly as the paper plots one
// bar per configuration.
type Measurement struct {
	Machine   string
	ClockMHz  int
	Query     string
	Processes int

	ThreadCycles    float64 // mean thread time in cycles (Fig. 2)
	WallSeconds     float64 // mean wall time in seconds
	Instructions    float64 // mean retired instructions
	CPI             float64 // Fig. 3
	CyclesPerMInstr float64 // Figs. 5 and 7

	L1Misses     float64 // mean absolute D-cache misses (Fig. 4)
	L2Misses     float64 // zero on single-level machines
	L1MissesPerM float64 // Fig. 8
	L2MissesPerM float64 // Fig. 6
	L1MissRate   float64 // misses per data reference

	ColdFraction      float64 // share of misses that are cold
	CapacityFraction  float64 // share that are capacity/conflict
	CoherenceFraction float64 // share that are communication (Fig. 6 discussion)

	MemLatencyCycles float64 // Fig. 9 (average open-request latency)
	MemLatencyMicros float64

	VolPerM   float64 // voluntary context switches / 1M instr (Fig. 10)
	InvolPerM float64 // involuntary switches / 1M instr (Fig. 10)

	LockBackoffs  float64 // mean select() back-offs per process
	Dirty3HopPerM float64 // dirty remote interventions / 1M instr
	SpinsPerM     float64
}

// FromStats derives a Measurement from a workload run.
func FromStats(st *workload.Stats) Measurement {
	c := st.MeanCounters()
	m := Measurement{
		Machine:   st.MachineName,
		ClockMHz:  st.ClockMHz,
		Query:     st.Query.String(),
		Processes: st.Processes,

		ThreadCycles: st.MeanThreadCycles(),
		WallSeconds:  st.MeanWallSeconds(),
		Instructions: float64(c.Instructions),
		CPI:          c.CPI(),

		L1Misses:     float64(c.L1DMisses),
		L2Misses:     float64(c.L2DMisses),
		L1MissesPerM: c.PerMillionInstr(c.L1DMisses),
		L2MissesPerM: c.PerMillionInstr(c.L2DMisses),

		MemLatencyCycles: c.AvgMemLatency(),
		VolPerM:          c.PerMillionInstr(c.VolCtxSwitches),
		InvolPerM:        c.PerMillionInstr(c.InvolCtxSwitches),
		LockBackoffs:     float64(c.LockBackoffs),
		Dirty3HopPerM:    c.PerMillionInstr(c.Dirty3HopMisses),
		SpinsPerM:        c.PerMillionInstr(c.SpinIterations),
	}
	if c.Instructions > 0 {
		m.CyclesPerMInstr = float64(c.Cycles) / float64(c.Instructions) * 1e6
	}
	if refs := c.Loads + c.Stores; refs > 0 {
		m.L1MissRate = float64(c.L1DMisses) / float64(refs)
	}
	if total := c.ColdMisses + c.CapacityMisses + c.CoherenceMisses; total > 0 {
		m.ColdFraction = float64(c.ColdMisses) / float64(total)
		m.CapacityFraction = float64(c.CapacityMisses) / float64(total)
		m.CoherenceFraction = float64(c.CoherenceMisses) / float64(total)
	}
	if st.ClockMHz > 0 {
		m.MemLatencyMicros = m.MemLatencyCycles / float64(st.ClockMHz)
	}
	return m
}

// OuterMisses returns the misses of the outermost cache level — the level
// whose misses go to memory (L2 on the Origin, the D-cache on the V-Class).
func (m Measurement) OuterMisses() float64 {
	if m.L2Misses > 0 {
		return m.L2Misses
	}
	return m.L1Misses
}

// Series is one machine/query curve over process counts (one line of Figs.
// 5–10).
type Series struct {
	Machine string
	Query   string
	Points  []Measurement // ascending process counts
}

// Growth returns metric(last)/metric(first) for the chosen metric.
func (s Series) Growth(metric func(Measurement) float64) float64 {
	if len(s.Points) < 2 {
		return 1
	}
	first := metric(s.Points[0])
	if first == 0 {
		return math.Inf(1)
	}
	return metric(s.Points[len(s.Points)-1]) / first
}

// At returns the point with the given process count (nil if absent).
func (s Series) At(procs int) *Measurement {
	for i := range s.Points {
		if s.Points[i].Processes == procs {
			return &s.Points[i]
		}
	}
	return nil
}

// Metric extractors for the paper's figures.
var (
	MetricCPI        = func(m Measurement) float64 { return m.CPI }
	MetricCyclesPerM = func(m Measurement) float64 { return m.CyclesPerMInstr }
	MetricL1PerM     = func(m Measurement) float64 { return m.L1MissesPerM }
	MetricL2PerM     = func(m Measurement) float64 { return m.L2MissesPerM }
	MetricMemLatency = func(m Measurement) float64 { return m.MemLatencyCycles }
	MetricVolPerM    = func(m Measurement) float64 { return m.VolPerM }
)
