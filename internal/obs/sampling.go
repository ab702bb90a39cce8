package obs

import "dssmem/internal/perfctr"

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
// file that flows through the normal Stats -> Measurement pipeline.
//
// No command or endpoint offers sampling: it flips the paper's Fig. 7 and
// Fig. 9 signatures at the medium preset (DESIGN.md §14). It stays for
// bench/dssperf's fig5-sampled workload and experiments.SamplingAccuracy.
type SamplingController struct {
	period  uint64
	quantum uint64
	cpus    []samplingCPU
}

type samplingCPU struct {
	measuring bool
	winStart  perfctr.Counters
	measured  perfctr.Counters // summed counter deltas of the measured windows

	// estFP is an EMA of detailed cycles per access in 48.16 fixed point —
	// the charge applied to each fast-forwarded access.
	estFP uint64

	ffAccesses uint64
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
			s.measuring = true
		} else {
			s.closeWindow(ct)
		}
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
	return cyc, true
}

// Detailed feeds the cost of one detailed-mode access into the per-CPU
// cycles-per-access estimate the fast-forward path charges.
func (c *SamplingController) Detailed(cpu int, cycles uint64) {
	s := &c.cpus[cpu]
	s.estFP += (cycles << 16 >> emaShift) - (s.estFP >> emaShift)
}

// closeWindow adds an open measured window's counter deltas to the total.
func (s *samplingCPU) closeWindow(ct *perfctr.Counters) {
	if !s.measuring {
		return
	}
	s.measuring = false
	if w := ct.Sub(&s.winStart); w.Instructions > 0 {
		s.measured.Add(&w)
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
	tot := &s.measured
	det := tot.Loads + tot.Stores
	if s.ffAccesses == 0 || det == 0 {
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

// SampleEstimate is how much of one CPU's sampled run was simulated in detail
// and how much was fast-forwarded. bench/dssperf reads both fields for its
// obs.detailed_instr_frac and obs.ff_accesses metrics.
type SampleEstimate struct {
	DetailedInstr uint64 `json:"detailed_instr"`
	FFAccesses    uint64 `json:"ff_accesses"`
}

// Estimate reports cpu's detailed and fast-forwarded volume. Call after
// Extrapolate (windows are final then).
func (c *SamplingController) Estimate(cpu int) SampleEstimate {
	s := &c.cpus[cpu]
	return SampleEstimate{DetailedInstr: s.measured.Instructions, FFAccesses: s.ffAccesses}
}
