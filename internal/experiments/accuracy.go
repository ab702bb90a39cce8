package experiments

import (
	"fmt"
	"math"

	"dssmem/internal/core"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// DefaultSamplingTolerance is the relative-error bound the sampling accuracy
// gate enforces at the default period (DefaultSamplingQuanta). Everything in
// the pipeline is deterministic, so the observed errors are fixed numbers for
// a given preset; the bound is set from them with headroom (see DESIGN.md §14
// for the error model and the measured values).
const DefaultSamplingTolerance = 0.08

// DefaultSamplingQuanta is the sampling period the gate (and the CLIs'
// -sample-quanta flag examples) use by default: simulate 2 of every 8 quanta
// in detail, fast-forward the rest.
const DefaultSamplingQuanta = 8

// AccuracyPoint is one exact-vs-sampled comparison in the sampling accuracy
// gate: a figure metric computed by full detailed simulation and by SMARTS
// interval sampling at the same configuration.
type AccuracyPoint struct {
	Name    string  `json:"name"`
	Exact   float64 `json:"exact"`
	Sampled float64 `json:"sampled"`
	RelErr  float64 `json:"rel_err"`
}

// SamplingAccuracy cross-checks interval sampling against exact simulation on
// the two figure metrics the paper leans on hardest: the Origin's Q6
// cycles-per-million-instructions at 8 processes (Fig. 5) and the V-Class's
// Q6 average memory latency at 2 processes (Fig. 9). It returns every
// comparison point and an error naming the first metric whose relative error
// exceeds tol. sampleQuanta <= 1 selects DefaultSamplingQuanta.
func SamplingAccuracy(e *Env, sampleQuanta int, tol float64) ([]AccuracyPoint, error) {
	if sampleQuanta <= 1 {
		sampleQuanta = DefaultSamplingQuanta
	}
	// Each metric is measured exactly and sampled; the four cells run as one
	// batch.
	metrics := []struct {
		name  string
		spec  machine.Spec
		procs int
		value func(core.Measurement) float64
	}{
		{"sgi-cyc/Minstr@8p", e.Origin(), 8, core.MetricCyclesPerM},
		{"hpv-memlat-cyc@2p", e.VClass(), 2, core.MetricMemLatency},
	}
	var cells []Cell
	for _, m := range metrics {
		cells = append(cells,
			Cell{Tag: m.spec.Name, Query: tpch.Q6, Procs: m.procs, Opts: workload.Options{Spec: m.spec}},
			Cell{Tag: m.spec.Name + "-sampled", Query: tpch.Q6, Procs: m.procs, Opts: workload.Options{Spec: m.spec, SampleQuanta: sampleQuanta}})
	}
	ms, err := e.MeasureAll(cells)
	if err != nil {
		return nil, fmt.Errorf("sampling accuracy: %w", err)
	}

	points := make([]AccuracyPoint, len(metrics))
	for i, m := range metrics {
		exact, est := m.value(ms[2*i]), m.value(ms[2*i+1])
		p := AccuracyPoint{Name: m.name, Exact: exact, Sampled: est}
		if exact != 0 {
			p.RelErr = math.Abs(est-exact) / math.Abs(exact)
		} else if est != 0 {
			p.RelErr = math.Inf(1)
		}
		points[i] = p
	}
	for _, p := range points {
		if p.RelErr > tol {
			return points, fmt.Errorf("sampling accuracy gate: %s off by %.2f%% (exact %.2f, sampled %.2f, tolerance %.0f%%)",
				p.Name, p.RelErr*100, p.Exact, p.Sampled, tol*100)
		}
	}
	return points, nil
}
