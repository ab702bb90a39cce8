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
	"slices"
	"sync"
	"sync/atomic"

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
	// It sees every simulation the env runs, and nothing else: cache hits
	// never reach it. The daemon injects a runner that bounds global
	// concurrency, applies per-run timeouts and records metrics; dssbench
	// wraps it to account runs and host time; tests inject failures.
	Runner func(context.Context, workload.Options) (*workload.Stats, error)

	// Parallelism is the number of MeasureAll slots: it bounds concurrent
	// simulations, each of which runs on one host thread at a time. It is
	// the only host-parallelism width and never changes a result.
	Parallelism int

	// SampleQuanta, when > 1, applies SMARTS interval sampling (see
	// workload.Options.SampleQuanta) to every measurement that does not set
	// it explicitly. Sampled measurements carry their own content digests:
	// estimates never collide with exact results. No command or endpoint
	// sets it; it stays for the benchmark's fig5-sampled workload, which
	// regenerates Figure 5 sampled.
	SampleQuanta int

	initMu sync.Mutex   // guards lazy Results init
	misses atomic.Int64 // MeasureCached calls the store did not answer as a hit
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
	raw, dig, _, err := e.MeasureCached(tag, q, procs, opts)
	if err != nil {
		return core.Measurement{}, err
	}
	// Both cold and warm paths decode the stored JSON, so a given digest
	// yields the same measurement regardless of cache state.
	var m core.Measurement
	if err := json.Unmarshal(raw, &m); err != nil {
		return core.Measurement{}, fmt.Errorf("%s/%v/p%d: corrupt cached measurement %s: %w", tag, q, procs, dig.Short(), err)
	}
	return m, nil
}

// CanonicalOptions normalizes opts exactly as a measurement run applies it:
// defaults made explicit so equivalent requests share a content digest, and
// non-identity fields (Data, Obs) cleared. rescache.DigestOptions over the
// result is the measurement's cache key.
func (e *Env) CanonicalOptions(q tpch.QueryID, procs int, opts workload.Options) workload.Options {
	opts.Data = nil
	opts.Obs = nil
	opts.Query = q
	opts.Processes = procs
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
	return opts
}

// simulate runs already-canonical options once on the env's data through its
// runner under ctx.
func (e *Env) simulate(ctx context.Context, opts workload.Options) (*workload.Stats, error) {
	opts.Data = e.Data
	return e.runner()(ctx, opts)
}

// runUncached simulates one configuration the way a measurement would
// (CanonicalOptions, the env's runner and context) but returns the raw stats
// and caches nothing: for experiments that need more than a core.Measurement
// holds, or that run a workload.Program, which no digest covers. The
// caller's observer, which canonicalization clears, stays attached.
func (e *Env) runUncached(q tpch.QueryID, procs int, opts workload.Options) (*workload.Stats, error) {
	ob := opts.Obs
	opts = e.CanonicalOptions(q, procs, opts)
	opts.Obs = ob
	return e.simulate(e.ctx(), opts)
}

// MeasureCached is MeasureOpts before the decode: it returns the measurement
// JSON the result store holds (json.Marshal of a core.Measurement), the
// measurement's content digest, and whether it was answered from the cache
// (memory or disk) without running a simulation. The bytes may be the store's
// own slice (rescache.Store.Get): callers must not modify or append to them.
func (e *Env) MeasureCached(tag string, q tpch.QueryID, procs int, opts workload.Options) (json.RawMessage, rescache.Digest, bool, error) {
	if opts.Program != nil {
		return nil, "", false, fmt.Errorf("%s/%v/p%d: no digest covers a Program; run it uncached", tag, q, procs)
	}
	opts = e.CanonicalOptions(q, procs, opts)
	dig := rescache.DigestOptions(e.Preset.SF, e.Preset.Seed, opts)

	raw, hit, err := e.results().Do(e.ctx(), rescache.NSMeasurement, dig, func(runCtx context.Context) ([]byte, error) {
		st, err := e.simulate(runCtx, opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(core.FromStats(st))
	})
	if !hit {
		e.misses.Add(1)
	}
	if err != nil {
		return nil, dig, false, fmt.Errorf("%s/%v/p%d: %w", tag, q, procs, err)
	}
	return raw, dig, hit, nil
}

// Misses returns how many measurements waited on a simulation: MeasureCached
// calls whose answer was not a store hit, whether this env started the run or
// joined one in flight. 0 means every measurement came from the store.
func (e *Env) Misses() int64 { return e.misses.Load() }

// Cell is one measurement of a batch: Query at Procs processes on the machine
// variant Opts.Spec. Tag names the variant in error messages, as in
// MeasureOpts.
type Cell struct {
	Tag   string
	Query tpch.QueryID
	Procs int
	Opts  workload.Options
}

// MeasureAll measures cells on one pool of Env.Parallelism slots and returns
// the measurements in cell order. Cells start in descending process count,
// ties in cell order: every process runs the whole query, so a cell's host
// time grows with its process count, and starting the longest cells first
// leaves only short ones to fill the last slots. Once the env's context is
// done no further cell starts: each unstarted cell fails with the context's
// cause, and started cells run to completion. The error is the
// lowest-indexed cell's. Each cell is an independent deterministic run
// addressed by its digest, so the start order cannot change any result.
func (e *Env) MeasureAll(cells []Cell) ([]core.Measurement, error) {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cells[b].Procs - cells[a].Procs })

	out := make([]core.Measurement, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, e.parallelism())
	var wg sync.WaitGroup
	for _, i := range order {
		sem <- struct{}{}
		c := cells[i]
		if err := context.Cause(e.ctx()); err != nil {
			// A started cell would open a flight that simulates, and may
			// cache, a run nobody is waiting for.
			errs[i] = fmt.Errorf("%s/%v/p%d: %w", c.Tag, c.Query, c.Procs, err)
			<-sem
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = e.MeasureOpts(c.Tag, c.Query, c.Procs, c.Opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// variant is one machine configuration an experiment measures: workload
// overrides opts (Spec included), tagged tag in error messages.
type variant struct {
	tag  string
	opts workload.Options
}

// plain is the unmodified machine spec, tagged with its name.
func plain(spec machine.Spec) variant {
	return variant{spec.Name, workload.Options{Spec: spec}}
}

// grid holds an experiment's measurements: every variant × query × process
// count, measured as one MeasureAll batch.
type grid struct {
	vs    []variant
	qs    []tpch.QueryID
	procs []int
	ms    []core.Measurement // variant-major, then query, then procs
}

// measureGrid measures every cell of vs × qs × procs as one MeasureAll batch.
func (e *Env) measureGrid(vs []variant, qs []tpch.QueryID, procs []int) (*grid, error) {
	var cells []Cell
	for _, v := range vs {
		for _, q := range qs {
			for _, n := range procs {
				cells = append(cells, Cell{Tag: v.tag, Query: q, Procs: n, Opts: v.opts})
			}
		}
	}
	ms, err := e.MeasureAll(cells)
	if err != nil {
		return nil, err
	}
	return &grid{vs, qs, procs, ms}, nil
}

// of returns query q's measurements under variant vs[v], one per process
// count in procs order.
func (g *grid) of(v int, q tpch.QueryID) []core.Measurement {
	i := (v*len(g.qs) + slices.Index(g.qs, q)) * len(g.procs)
	return g.ms[i : i+len(g.procs)]
}

// series returns of(v, q) as a series on the variant's machine that owns its
// Points.
func (g *grid) series(v int, q tpch.QueryID) core.Series {
	return core.Series{Machine: g.vs[v].opts.Spec.Name, Query: q.String(), Points: slices.Clone(g.of(v, q))}
}

// Sweep measures a query over ProcCounts on one machine variant as one
// MeasureAll batch and returns the series in ascending process count.
func (e *Env) Sweep(tag string, spec machine.Spec, q tpch.QueryID, opts workload.Options) (core.Series, error) {
	opts.Spec = spec
	g, err := e.measureGrid([]variant{{tag, opts}}, []tpch.QueryID{q}, ProcCounts)
	if err != nil {
		return core.Series{}, err
	}
	return g.series(0, q), nil
}

func (e *Env) parallelism() int {
	if e.Parallelism < 1 {
		return 1
	}
	return e.Parallelism
}
