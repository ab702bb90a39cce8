// Package dssmem reproduces, as an execution-driven simulation study, the
// IPPS 2002 paper "Comparing the Memory System Performance of DSS Workloads
// on the HP V-Class and SGI Origin 2000" (Yu, Bhuyan, Iyer).
//
// The library models both multiprocessors (caches, directory coherence with
// the V-Class migratory enhancement and the Origin speculative reply,
// crossbar vs. hypercube interconnects), a miniature PostgreSQL-style DBMS
// whose every memory reference drives the machine model, the TPC-H subset
// the paper used (Q6, Q21, Q12 over generated data), and a simulated OS
// (time slices, select() back-off). The experiments layer regenerates every
// figure of the paper's evaluation.
//
// Quick start:
//
//	data := dssmem.GenerateData(0.004, 42)
//	st, err := dssmem.Run(dssmem.RunOptions{
//	    Spec:      dssmem.VClass(16, 64),
//	    Data:      data,
//	    Query:     dssmem.Q6,
//	    Processes: 4,
//	})
//	m := dssmem.Measure(st)
//	fmt.Println(m.CPI, m.L1MissesPerM)
//
// See the examples/ directory and cmd/dssbench for complete programs.
package dssmem

import (
	"context"
	"io"

	"dssmem/internal/core"
	"dssmem/internal/experiments"
	"dssmem/internal/machine"
	"dssmem/internal/obs"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Re-exported types: machine description and run plumbing.
type (
	// MachineSpec fully describes a simulated multiprocessor.
	MachineSpec = machine.Spec
	// RunOptions configures one workload run.
	RunOptions = workload.Options
	// RunStats is the raw outcome of a run.
	RunStats = workload.Stats
	// Measurement is one experimental cell in the paper's metrics.
	Measurement = core.Measurement
	// Series is one machine/query curve over process counts.
	Series = core.Series
	// Data is a generated TPC-H database image.
	Data = tpch.Data
	// QueryID selects one of the studied queries.
	QueryID = tpch.QueryID
	// QueryResult is a query answer.
	QueryResult = tpch.Result
	// Preset bundles database and machine scaling.
	Preset = experiments.Preset
	// Env is a reusable experiment environment.
	Env = experiments.Env
	// FigureResult is one regenerated figure or ablation.
	FigureResult = experiments.Result
	// ObsConfig selects the observability pillars of an Observer.
	ObsConfig = obs.Config
	// Observer collects interval counter samples, the protocol event trace
	// and per-operator attribution for one run (RunOptions.Obs).
	Observer = obs.Observer
	// ObsSample is one closed counter-sampling window.
	ObsSample = obs.Sample
	// ObsEvent is one timestamped trace event.
	ObsEvent = obs.Event
	// OpStats aggregates one query-plan operator's attribution.
	OpStats = obs.OpStats
	// SampleEstimate summarizes one CPU's SMARTS interval-sampling quality
	// (RunStats.Sampling): detailed vs fast-forwarded volume and CI95
	// half-widths of the key per-window rates.
	SampleEstimate = obs.SampleEstimate
)

// The three queries the paper studies, plus the Q1 extension.
const (
	Q6  = tpch.Q6
	Q21 = tpch.Q21
	Q12 = tpch.Q12
	// Q1 is an extension beyond the paper's workload (see internal/tpch/q1.go).
	Q1 = tpch.Q1
)

// Queries lists the paper's three queries in its order.
var Queries = tpch.AllQueries

// ExtendedQueries adds the extension queries.
var ExtendedQueries = tpch.ExtendedQueries

// Experiment presets (see DESIGN.md §4 for the scaling rule).
var (
	PresetTiny   = experiments.Tiny
	PresetSmall  = experiments.Small
	PresetMedium = experiments.Medium
)

// VClass returns the HP V-Class model (cpus ≤ 16; memScale divides cache
// capacities, 1 = full size).
func VClass(cpus, memScale int) MachineSpec { return machine.VClassSpec(cpus, memScale) }

// Origin returns the SGI Origin 2000 model (cpus ≤ 32).
func Origin(cpus, memScale int) MachineSpec { return machine.OriginSpec(cpus, memScale) }

// Starfire returns the Sun E10000-style extension platform (cpus ≤ 64).
func Starfire(cpus, memScale int) MachineSpec { return machine.StarfireSpec(cpus, memScale) }

// NewMachineSpec is the hook for custom machines: start from one of the two
// platform specs and adjust fields, or build a Spec from scratch (see
// examples/custom-machine).
func NewMachineSpec() MachineSpec { return MachineSpec{} }

// GenerateData builds the deterministic TPC-H subset at the given scale
// factor (1.0 = 1.5M orders; the paper's 200 MB database is ≈ 0.3).
func GenerateData(sf float64, seed uint64) *Data { return tpch.Generate(sf, seed) }

// Run executes one configuration, validating every process's query answer
// against the reference implementation.
func Run(opts RunOptions) (*RunStats, error) { return workload.Run(opts) }

// RunContext is Run with cancellation: when ctx ends, the simulation aborts
// at its next scheduling-quantum boundary (cmd/dssmemd is built on this).
func RunContext(ctx context.Context, opts RunOptions) (*RunStats, error) {
	return workload.RunContext(ctx, opts)
}

// RunTrials repeats a configuration n times with perturbed OS jitter (the
// paper's four averaged trials), one after another, and returns the trials'
// stats in order.
func RunTrials(opts RunOptions, n int) ([]*RunStats, error) { return workload.RunTrials(opts, n) }

// Measure converts run stats into the paper's metrics.
func Measure(st *RunStats) Measurement { return core.FromStats(st) }

// ReferenceAnswer computes a query's answer directly over the raw data.
func ReferenceAnswer(q QueryID, d *Data) *QueryResult { return tpch.Ref(q, d) }

// NewEnv creates an experiment environment (generates the preset's database).
func NewEnv(p Preset) *Env { return experiments.NewEnv(p) }

// PresetByName resolves "tiny", "small" or "medium".
func PresetByName(name string) (Preset, error) { return experiments.PresetByName(name) }

// RunFigure regenerates one of the paper's figures (2..10), writing the
// table to w (which may be nil).
func RunFigure(e *Env, id int, w io.Writer) (*FigureResult, error) {
	return experiments.RunFigure(e, id, w)
}

// RunAblation runs one named ablation (see AblationNames).
func RunAblation(e *Env, name string, w io.Writer) (*FigureResult, error) {
	return experiments.RunAblation(e, name, w)
}

// FigureIDs lists the available figures.
func FigureIDs() []int { return experiments.FigureIDs() }

// AblationNames lists the available ablations.
func AblationNames() []string { return experiments.AblationNames() }

// SamplingAccuracy cross-checks SMARTS interval sampling against exact
// simulation on the accuracy gate's figure metrics (see internal/experiments).
func SamplingAccuracy(e *Env, sampleQuanta int, tol float64) ([]experiments.AccuracyPoint, error) {
	return experiments.SamplingAccuracy(e, sampleQuanta, tol)
}

// NewObserver creates an observability collector. Attach it to a run via
// RunOptions.Obs; after the run, export with the Observer's WriteTrace
// (Chrome trace-event JSON for Perfetto), WriteSamplesCSV/WriteSamplesJSON
// (per-window counter time series), WriteOpsTable (per-operator
// attribution) and WriteSummary (terminal sparklines) methods.
func NewObserver(cfg ObsConfig) *Observer { return obs.New(cfg) }
