package obs

import (
	"dssmem/internal/perfctr"
	"dssmem/internal/stats"
)

// SamplingController implements SMARTS-style interval sampling over the
// kernel's scheduling quanta. Simulated time is divided per CPU into periods
// of P quanta (P = the configured SampleQuanta):
//
//   - quantum 0 of each period runs in detailed mode and is MEASURED — its
//     counter deltas form one sampling window;
//   - the final quantum runs in detailed mode but unmeasured — functional
//     warming, so the next measured window starts with caches and directory
//     state representative of continuous execution;
//   - the quanta in between FAST-FORWARD: every access still updates the
//     functional counters (instructions, loads, stores — and the DBMS's own
//     logical state, which executes exactly), but skips the cache/directory
//     walk, charging instead an online estimate of cycles per access learned
//     from the detailed stretches.
//
// The measured window leads its period so short runs (fewer quanta than one
// period) degrade to exact simulation. P=2 is fully detailed (measured +
// warming, nothing skipped); P>=3 skips P-2 of every P quanta.
//
// After the run, Extrapolate scales the event counters a fast-forwarded
// access never generated (misses, upgrades, memory requests/latency, stalls)
// by the measured windows' per-access rates, producing an estimated counter
// file that flows through the normal Stats -> Measurement pipeline; Estimate
// reports per-window dispersion as CI95 half-widths (internal/stats).
type SamplingController struct {
	period  uint64
	quantum uint64
	cpus    []samplingCPU
}

type samplingCPU struct {
	measuring bool
	winStart  perfctr.Counters
	windows   []perfctr.Counters // measured-window counter deltas

	// estFP is an EMA of detailed cycles per access in 48.16 fixed point —
	// the charge applied to each fast-forwarded access.
	estFP uint64

	ffAccesses uint64
	ffCycles   uint64
}

// emaShift sets the EMA horizon (2^6 = 64 accesses) — long enough to smooth
// per-access noise, short enough to track phase changes within a window.
const emaShift = 6

// NewSamplingController builds a controller for cpus CPUs with the given
// scheduling quantum (cycles) and sampling period (quanta per period; values
// below 2 are clamped to 2, which is fully detailed).
func NewSamplingController(cpus int, quantum uint64, period int) *SamplingController {
	if period < 2 {
		period = 2
	}
	if quantum == 0 {
		quantum = 1
	}
	return &SamplingController{
		period:  uint64(period),
		quantum: quantum,
		cpus:    make([]samplingCPU, cpus),
	}
}

// Access decides the fate of one memory access on cpu at simulated time now.
// It returns (cycles, true) when the access is fast-forwarded: the functional
// counters in ct have been bumped and cycles is the estimated charge — the
// caller must skip the machine model and advance its clock by cycles. It
// returns (0, false) when the access must run in detailed mode; the caller
// then reports the detailed cost via Detailed.
func (c *SamplingController) Access(cpu int, ct *perfctr.Counters, write bool, now uint64) (uint64, bool) {
	s := &c.cpus[cpu]
	idx := (now / c.quantum) % c.period
	measured := idx == 0
	if measured != s.measuring {
		if measured {
			s.winStart = *ct
		} else {
			w := ct.Sub(&s.winStart)
			if w.Instructions > 0 {
				s.windows = append(s.windows, w)
			}
		}
		s.measuring = measured
	}
	if measured || idx == c.period-1 {
		return 0, false
	}
	ct.Instructions++
	if write {
		ct.Stores++
	} else {
		ct.Loads++
	}
	cyc := s.estFP >> 16
	if cyc == 0 {
		cyc = 1 // first period not yet warmed; never charge zero time
	}
	ct.Cycles += cyc
	s.ffAccesses++
	s.ffCycles += cyc
	return cyc, true
}

// Detailed feeds the cost of one detailed-mode access into the per-CPU
// cycles-per-access estimate the fast-forward path charges.
func (c *SamplingController) Detailed(cpu int, cycles uint64) {
	s := &c.cpus[cpu]
	s.estFP += (cycles << 16 >> emaShift) - (s.estFP >> emaShift)
}

// closeWindow finalizes an open measured window at end of run.
func (s *samplingCPU) closeWindow(ct *perfctr.Counters) {
	if !s.measuring {
		return
	}
	s.measuring = false
	w := ct.Sub(&s.winStart)
	if w.Instructions > 0 {
		s.windows = append(s.windows, w)
	}
}

// Extrapolate scales the event counters fast-forwarded accesses skipped by
// the measured windows' mean per-access rates, in place. Cycles,
// instructions, loads and stores are NOT touched: they were accounted online
// (exactly for the functional ones, by estimate for cycles). Call once per
// CPU after the run completes.
func (c *SamplingController) Extrapolate(cpu int, ct *perfctr.Counters) {
	s := &c.cpus[cpu]
	s.closeWindow(ct)
	if s.ffAccesses == 0 || len(s.windows) == 0 {
		return
	}
	var tot perfctr.Counters
	for i := range s.windows {
		tot.Add(&s.windows[i])
	}
	det := tot.Loads + tot.Stores
	if det == 0 {
		return
	}
	// All inputs are integers and float64 arithmetic is deterministic, so
	// sampled runs remain cacheable by content digest.
	ratio := float64(s.ffAccesses) / float64(det)
	scale := func(v uint64) uint64 { return uint64(float64(v) * ratio) }
	ct.L1DMisses += scale(tot.L1DMisses)
	ct.L2DMisses += scale(tot.L2DMisses)
	ct.Upgrades += scale(tot.Upgrades)
	ct.ColdMisses += scale(tot.ColdMisses)
	ct.CapacityMisses += scale(tot.CapacityMisses)
	ct.CoherenceMisses += scale(tot.CoherenceMisses)
	ct.MemRequests += scale(tot.MemRequests)
	ct.MemLatencyCycles += scale(tot.MemLatencyCycles)
	ct.StallCycles += scale(tot.StallCycles)
	ct.Dirty3HopMisses += scale(tot.Dirty3HopMisses)
}

// SampleEstimate summarizes one CPU's sampling quality: how much was
// simulated in detail, how much was fast-forwarded, and the dispersion of the
// key per-window rates as 95% confidence half-widths.
type SampleEstimate struct {
	Windows       int     `json:"windows"`
	DetailedInstr uint64  `json:"detailed_instr"`
	FFAccesses    uint64  `json:"ff_accesses"`
	CPIMean       float64 `json:"cpi_mean"`
	CPICI95       float64 `json:"cpi_ci95"`
	L1PerMMean    float64 `json:"l1_per_m_mean"`
	L1PerMCI95    float64 `json:"l1_per_m_ci95"`
	MemLatMean    float64 `json:"memlat_mean"`
	MemLatCI95    float64 `json:"memlat_ci95"`
}

// Estimate reports cpu's sampling summary. Call after Extrapolate (windows
// are final then). Zero value when the CPU never measured a window.
func (c *SamplingController) Estimate(cpu int) SampleEstimate {
	s := &c.cpus[cpu]
	e := SampleEstimate{Windows: len(s.windows), FFAccesses: s.ffAccesses}
	var cpi, l1m, lat []float64
	for i := range s.windows {
		w := &s.windows[i]
		e.DetailedInstr += w.Instructions
		if w.Instructions > 0 {
			cpi = append(cpi, float64(w.Cycles)/float64(w.Instructions))
			l1m = append(l1m, float64(w.L1DMisses)/float64(w.Instructions)*1e6)
		}
		if w.MemRequests > 0 {
			lat = append(lat, float64(w.MemLatencyCycles)/float64(w.MemRequests))
		}
	}
	e.CPIMean, e.CPICI95 = stats.MeanCI95(cpi)
	e.L1PerMMean, e.L1PerMCI95 = stats.MeanCI95(l1m)
	e.MemLatMean, e.MemLatCI95 = stats.MeanCI95(lat)
	return e
}
