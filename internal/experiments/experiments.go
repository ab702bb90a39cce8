// Package experiments regenerates the paper's evaluation: one experiment per
// figure (Figs. 2–10), plus ablations of the design choices DESIGN.md calls
// out. Each experiment prints the same rows/series the paper reports and
// returns them as structured data for tests and benchmarks.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"dssmem/internal/core"
	"dssmem/internal/machine"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Preset bundles a database scale factor with the matching machine memory
// scale (DESIGN.md §4: cache capacities divide by MemScale so the
// working-set:cache ratios match the paper's 200 MB : {2 MB, 32 KB, 4 MB}).
type Preset struct {
	Name     string
	SF       float64
	MemScale int
	Seed     uint64
}

// The standard presets.
var (
	// Tiny is for unit tests: seconds of wall time for a full figure.
	Tiny = Preset{Name: "tiny", SF: 0.002, MemScale: 256, Seed: 7}
	// Small is for benchmarks.
	Small = Preset{Name: "small", SF: 0.006, MemScale: 64, Seed: 7}
	// Medium is the default for the dssbench harness.
	Medium = Preset{Name: "medium", SF: 0.016, MemScale: 32, Seed: 7}
)

// PresetByName resolves a preset name.
func PresetByName(name string) (Preset, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium", "":
		return Medium, nil
	}
	return Preset{}, fmt.Errorf("experiments: unknown preset %q (tiny|small|medium)", name)
}

// ProcCounts is the multiprogramming sweep of the paper's Figs. 5–10.
var ProcCounts = []int{1, 2, 4, 6, 8}

// Env is a shared experimental environment: one generated database reused by
// every figure, plus a cache of completed runs (Figs. 2–4 share the same
// configurations, as do Figs. 5–10).
//
// Runs are keyed by the canonical digest of their full configuration
// (rescache.CanonicalRequest) — not by the caller-supplied tag, which is
// used only in error messages. Two ablations passing different
// workload.Options therefore never share a measurement, no matter how they
// are tagged.
type Env struct {
	Preset Preset
	Data   *tpch.Data

	// Results is the content-addressed run cache. Leave nil for a private
	// in-memory cache; the daemon points it at a shared, disk-persisted
	// store so measurements survive restarts and deduplicate across
	// requests.
	Results *rescache.Store

	// Ctx, when non-nil, bounds every measurement: its cancellation aborts
	// in-flight simulations at the next scheduling quantum (the daemon binds
	// it to the HTTP request). nil means context.Background().
	Ctx context.Context

	// Runner executes one workload run (nil selects workload.RunContext).
	// The daemon injects a runner that bounds global concurrency, applies
	// per-run timeouts and records metrics; tests inject failures.
	Runner func(context.Context, workload.Options) (*workload.Stats, error)

	// Parallelism bounds concurrent simulations (each is single-threaded
	// in serial mode; bound–weave runs additionally parallelize inside one
	// simulation).
	Parallelism int

	// Parallel applies workload bound–weave execution to every measurement
	// that does not set it explicitly (see workload.Options.Parallel). It
	// changes the content digests: parallel measurements are cached under
	// their own identity.
	Parallel bool
	// ParallelWindow is the default bound window in cycles (0 = quantum).
	ParallelWindow uint64

	// SampleQuanta, when > 1, applies SMARTS interval sampling (see
	// workload.Options.SampleQuanta) to every measurement that does not set
	// it explicitly. Sampled measurements carry their own content digests:
	// estimates never collide with exact results.
	SampleQuanta int

	// Tally, when non-nil, accumulates host-side run accounting (runs,
	// warmup vs measured wall time) across this env's measurements. Cache
	// hits do not tally: nothing ran.
	Tally *RunTally

	initMu sync.Mutex // guards lazy Results init
}

// NewEnv generates the preset's database once and returns the environment.
func NewEnv(p Preset) *Env {
	return NewEnvWith(p, tpch.Generate(p.SF, p.Seed))
}

// NewEnvWith reuses an already-generated database (benchmarks regenerate the
// run cache every iteration but share the data).
func NewEnvWith(p Preset, d *tpch.Data) *Env {
	return &Env{
		Preset:      p,
		Data:        d,
		Results:     rescache.NewMemory(),
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

func (e *Env) results() *rescache.Store {
	e.initMu.Lock()
	defer e.initMu.Unlock()
	if e.Results == nil {
		e.Results = rescache.NewMemory()
	}
	return e.Results
}

func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Env) runner() func(context.Context, workload.Options) (*workload.Stats, error) {
	if e.Runner != nil {
		return e.Runner
	}
	return workload.RunContext
}

// VClass returns the V-Class spec at this environment's scale.
func (e *Env) VClass() machine.Spec { return machine.VClassSpec(16, e.Preset.MemScale) }

// Origin returns the Origin 2000 spec at this environment's scale.
func (e *Env) Origin() machine.Spec { return machine.OriginSpec(32, e.Preset.MemScale) }

// Measure runs (or recalls) one configuration on an unmodified machine.
func (e *Env) Measure(spec machine.Spec, q tpch.QueryID, procs int) (core.Measurement, error) {
	return e.MeasureOpts(spec.Name, q, procs, workload.Options{Spec: spec})
}

// MeasureOpts runs one configuration with workload overrides; tag names the
// machine variant in error messages (ablations pass e.g.
// "vclass-nomigratory"). The cache key is the canonical digest of the full
// configuration, so the tag carries no identity.
func (e *Env) MeasureOpts(tag string, q tpch.QueryID, procs int, opts workload.Options) (core.Measurement, error) {
	m, _, err := e.MeasureCached(tag, q, procs, opts)
	return m, err
}

// CanonicalOptions normalizes opts exactly as a measurement run applies it:
// defaults made explicit so equivalent requests share a content digest, and
// non-identity fields (Data, Obs) cleared. rescache.DigestOptions over the
// result is the measurement's cache key.
func (e *Env) CanonicalOptions(q tpch.QueryID, procs int, opts workload.Options) workload.Options {
	opts.Data = nil
	opts.Obs = nil
	opts.SimFault = nil
	opts.Query = q
	opts.Processes = procs
	opts.Validate = true
	if opts.OSTimeScale == 0 {
		opts.OSTimeScale = e.Preset.MemScale
	}
	if opts.SampleQuanta == 0 {
		opts.SampleQuanta = e.SampleQuanta
	}
	if opts.SampleQuanta == 1 {
		// A period of 1 cannot sample (the controller clamps to 2, fully
		// detailed); normalize to exact so the digest matches the behavior.
		opts.SampleQuanta = 0
	}
	if opts.SampleQuanta > 1 {
		// Sampled runs execute serially (the controller is not weave-aware);
		// keep the digest honest about it.
		opts.Parallel = false
		opts.ParallelWindow = 0
	} else if e.Parallel && !opts.Parallel {
		opts.Parallel = true
		opts.ParallelWindow = e.ParallelWindow
	}
	return opts
}

// MeasureCached is MeasureOpts exposing whether the measurement was answered
// from the cache (memory or disk) without running a simulation.
func (e *Env) MeasureCached(tag string, q tpch.QueryID, procs int, opts workload.Options) (core.Measurement, bool, error) {
	opts = e.CanonicalOptions(q, procs, opts)
	dig := rescache.DigestOptions(e.Preset.SF, e.Preset.Seed, opts)

	raw, hit, err := e.results().Do(e.ctx(), rescache.NSMeasurement, dig, func(runCtx context.Context) ([]byte, error) {
		o := opts
		o.Data = e.Data
		st, err := e.runner()(runCtx, o)
		if err != nil {
			return nil, err
		}
		e.Tally.add(st)
		return json.Marshal(core.FromStats(st))
	})
	if err != nil {
		return core.Measurement{}, false, fmt.Errorf("%s/%v/p%d: %w", tag, q, procs, err)
	}
	// Both cold and warm paths decode the stored JSON, so a given digest
	// yields byte-identical re-encodings regardless of cache state.
	var m core.Measurement
	if err := json.Unmarshal(raw, &m); err != nil {
		return core.Measurement{}, false, fmt.Errorf("%s/%v/p%d: corrupt cached measurement %s: %w", tag, q, procs, dig.Short(), err)
	}
	return m, hit, nil
}

// Sweep measures a query over ProcCounts on one machine variant, in parallel
// up to Env.Parallelism, and returns the series in ascending process count.
func (e *Env) Sweep(tag string, spec machine.Spec, q tpch.QueryID, opts workload.Options) (core.Series, error) {
	s := core.Series{Machine: spec.Name, Query: q.String(), Points: make([]core.Measurement, len(ProcCounts))}
	sem := make(chan struct{}, e.parallelism())
	errs := make([]error, len(ProcCounts))
	var wg sync.WaitGroup
	for i, n := range ProcCounts {
		i, n := i, n
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			o := opts
			o.Spec = spec
			s.Points[i], errs[i] = e.MeasureOpts(tag, q, n, o)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func (e *Env) parallelism() int {
	if e.Parallelism < 1 {
		return 1
	}
	return e.Parallelism
}
