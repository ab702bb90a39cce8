package experiments

import (
	"fmt"
	"math"

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
	sampled := workload.Options{SampleQuanta: sampleQuanta}

	points := []AccuracyPoint{}
	run := func(name string, measure func(opts workload.Options) (float64, error)) error {
		exact, err := measure(workload.Options{})
		if err != nil {
			return fmt.Errorf("accuracy %s exact: %w", name, err)
		}
		est, err := measure(sampled)
		if err != nil {
			return fmt.Errorf("accuracy %s sampled: %w", name, err)
		}
		p := AccuracyPoint{Name: name, Exact: exact, Sampled: est}
		if exact != 0 {
			p.RelErr = math.Abs(est-exact) / math.Abs(exact)
		} else if est != 0 {
			p.RelErr = math.Inf(1)
		}
		points = append(points, p)
		return nil
	}

	origin := e.Origin()
	if err := run("sgi-cyc/Minstr@8p", func(o workload.Options) (float64, error) {
		o.Spec = origin
		m, err := e.MeasureOpts(origin.Name, tpch.Q6, 8, o)
		return m.CyclesPerMInstr, err
	}); err != nil {
		return points, err
	}
	vclass := e.VClass()
	if err := run("hpv-memlat-cyc@2p", func(o workload.Options) (float64, error) {
		o.Spec = vclass
		m, err := e.MeasureOpts(vclass.Name, tpch.Q6, 2, o)
		return m.MemLatencyCycles, err
	}); err != nil {
		return points, err
	}
	for _, p := range points {
		if p.RelErr > tol {
			return points, fmt.Errorf("sampling accuracy gate: %s off by %.2f%% (exact %.2f, sampled %.2f, tolerance %.0f%%)",
				p.Name, p.RelErr*100, p.Exact, p.Sampled, tol*100)
		}
	}
	return points, nil
}
