// Package workload runs the paper's experimental configurations: N query
// processes (all running the same TPC-H query) pinned to distinct CPUs of a
// simulated machine, with hardware counters collected over the measured
// region and query answers validated against reference implementations.
package workload

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dssmem/internal/coherence"
	"dssmem/internal/db/engine"
	"dssmem/internal/machine"
	"dssmem/internal/obs"
	"dssmem/internal/perfctr"
	"dssmem/internal/sim"
	"dssmem/internal/simos"
	"dssmem/internal/tpch"
)

// Options describes one run.
type Options struct {
	Spec    machine.Spec
	OS      simos.Config // zero value: simos.DefaultConfig(Spec.ClockMHz)
	Quantum sim.Clock    // 0: sim.DefaultQuantum
	Data    *tpch.Data
	Query   tpch.QueryID
	// Mix, when non-empty, runs a heterogeneous workload: process i runs
	// Mix[i%len(Mix)] and Query is ignored. This models the reading of the
	// paper's §4 title ("Multiple (Diff) Query Execution") in which the
	// concurrent processes run different queries.
	Mix       []tpch.QueryID
	Processes int
	// Validate compares each process's answer against the reference
	// implementation (default on via Run; RunUnchecked skips).
	Validate bool
	// SpinLimit overrides the DBMS spin-before-backoff count (0 = default).
	SpinLimit int
	// BufHeaderBytes overrides the buffer-descriptor stride (0 = default).
	BufHeaderBytes int
	// OSTimeScale divides the select() back-off to match a scaled-down
	// machine (pass the memory-scale factor; 0 = 1). Ignored when OS is set
	// explicitly.
	OSTimeScale int
	// HintBitFraction forwards to the engine (0 = default, negative = off).
	HintBitFraction float64
	// Trial perturbs the OS jitter seed so repeated trials of one
	// configuration differ, as the paper's four averaged trials did.
	Trial int
	// ColdRun starts the buffer pool empty, modeling the first of the
	// paper's four trials: every first page touch pays a disk read and a
	// voluntary context switch.
	ColdRun bool
	// Obs, when non-nil, attaches the observability layer: interval
	// counter sampling, the structured event trace, and per-operator
	// attribution, per its configuration. The observer is rebound to this
	// run's CPU count and clock; observation is passive and does not
	// perturb counters or timing.
	Obs *obs.Observer
	// SimFault, when non-nil, is installed as the simulation kernel's
	// quantum-boundary fault hook (sim.Kernel.FaultHook): the chaos layer
	// injects wall-clock stalls and hangs through it. Like Obs it never
	// perturbs simulated results, and like Obs and Data it carries no run
	// identity — it is excluded from the cache digest and cleared by
	// experiments.Env.CanonicalOptions.
	SimFault func()
	// SampleQuanta enables SMARTS-style interval sampling with the given
	// period in scheduling quanta: of every SampleQuanta quanta per CPU, the
	// first is simulated in detail and measured, the last is simulated in
	// detail as functional warming, and the rest fast-forward with estimated
	// timing (see obs.SamplingController). 0 or 1 means exact simulation.
	// Sampled counters are estimates, so SampleQuanta is part of the result
	// identity (rescache digests sampled and exact runs differently).
	SampleQuanta int
}

// ProcStats is one process's measured region.
type ProcStats struct {
	Query        tpch.QueryID
	Counters     perfctr.Counters
	ThreadCycles uint64
	WallCycles   uint64
	Vol, Invol   uint64
}

// Stats is the outcome of a run.
type Stats struct {
	MachineName string
	ClockMHz    int
	Query       tpch.QueryID
	Processes   int
	Procs       []ProcStats
	Dir         coherence.Stats
	Sess        SessStats
	// Regions aggregates per-data-region access/miss tallies across all
	// processes (the paper's record/index/metadata/private taxonomy).
	Regions perfctr.RegionCounters
	// DiskReads counts cold-pool device reads (0 for warm runs).
	DiskReads uint64
	// WarmupHostNS and MeasuredHostNS split the run's host wall-clock time
	// between the warmup prelude (bulk load) and the measured region
	// (simulation). Host-side accounting only: core.FromStats ignores them.
	// They are excluded from the JSON encoding: Stats JSON must stay a pure
	// function of Options for digest-keyed caching and determinism tests.
	WarmupHostNS   int64 `json:"-"`
	MeasuredHostNS int64 `json:"-"`
	// Sampling carries per-process sampling-estimator diagnostics (window
	// counts, CI95 half-widths) when the run was sampled; nil for exact
	// runs. Host-side diagnostics only, like WarmupHostNS.
	Sampling []obs.SampleEstimate
}

// SessStats aggregates DBMS-level instrumentation across processes.
type SessStats struct {
	Pins             uint64
	BufMgrAcquires   uint64
	BufMgrContended  uint64
	RelationAcquires uint64
}

// Run executes the configuration and validates the answers.
func Run(opts Options) (*Stats, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is cancelled (client
// disconnect, timeout, shutdown) the simulation kernel is interrupted at the
// next scheduling-quantum boundary and RunContext returns ctx's error — no
// goroutine keeps simulating in the background.
func RunContext(ctx context.Context, opts Options) (*Stats, error) {
	opts.Validate = true
	return run(ctx, opts)
}

// RunUnchecked executes without answer validation (benchmarks).
func RunUnchecked(opts Options) (*Stats, error) {
	opts.Validate = false
	return run(context.Background(), opts)
}

// RunUncheckedContext is RunUnchecked with cancellation.
func RunUncheckedContext(ctx context.Context, opts Options) (*Stats, error) {
	opts.Validate = false
	return run(ctx, opts)
}

func run(ctx context.Context, opts Options) (*Stats, error) {
	if opts.Processes <= 0 {
		return nil, fmt.Errorf("workload: need at least one process")
	}
	if opts.Processes > opts.Spec.CPUs {
		return nil, fmt.Errorf("workload: %d processes exceed %d CPUs", opts.Processes, opts.Spec.CPUs)
	}
	if opts.Data == nil {
		return nil, fmt.Errorf("workload: no data")
	}

	preludeStart := time.Now()
	db := engine.Open(engineConfig(opts))
	tpch.Load(db, opts.Data)
	warmupNS := time.Since(preludeStart).Nanoseconds()

	spec := opts.Spec
	spec.SharedLimit = db.SharedBytes // dense directory covers all shared data
	m := machine.New(spec)

	osCfg := opts.OS
	if osCfg == (simos.Config{}) {
		osCfg = simos.DefaultConfigScaled(spec.ClockMHz, opts.OSTimeScale)
	}
	osCfg.Seed += uint64(opts.Trial)
	osys := simos.New(m, osCfg, opts.Quantum)

	if opts.Obs != nil {
		opts.Obs.Bind(spec.CPUs, spec.ClockMHz)
		m.Observe(opts.Obs)
		osys.Observe(opts.Obs)
	}
	if opts.SimFault != nil {
		osys.SetFaultHook(opts.SimFault)
	}
	var sampler *obs.SamplingController
	if opts.SampleQuanta > 1 {
		quantum := opts.Quantum
		if quantum == 0 {
			quantum = sim.DefaultQuantum
		}
		sampler = obs.NewSamplingController(spec.CPUs, uint64(quantum), opts.SampleQuanta)
		osys.SetSampling(sampler)
	}

	queryOf := func(i int) tpch.QueryID {
		if len(opts.Mix) > 0 {
			return opts.Mix[i%len(opts.Mix)]
		}
		return opts.Query
	}
	results := make([]*tpch.Result, opts.Processes)
	sessions := make([]*engine.Session, opts.Processes)
	for i := 0; i < opts.Processes; i++ {
		i := i
		osys.Spawn(i, func(p *simos.Process) {
			p.Classifier = db.Classify
			sess := db.NewSession(p, i)
			sessions[i] = sess
			p.BeginOp("query:" + queryOf(i).String())
			results[i] = tpch.Run(queryOf(i), sess)
			p.EndOp()
		})
	}

	m.ResetCounters() // measured region starts now (caches cold, pool warm)
	measuredStart := time.Now()
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { osys.Interrupt(context.Cause(ctx)) })
		defer stop()
	}
	if err := osys.Run(); err != nil {
		if errors.Is(err, sim.ErrInterrupted) && ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("workload: run aborted: %w", context.Cause(ctx))
		}
		return nil, err
	}
	measuredNS := time.Since(measuredStart).Nanoseconds()
	if sampler != nil {
		// Estimate the event counters the fast-forwarded quanta skipped from
		// the measured windows' rates; the estimated counter files then flow
		// through the normal Stats -> Measurement pipeline.
		for i := 0; i < opts.Processes; i++ {
			sampler.Extrapolate(i, m.Counters(i))
		}
	}

	if opts.Validate {
		wants := map[tpch.QueryID]uint64{}
		for i, r := range results {
			q := queryOf(i)
			want, ok := wants[q]
			if !ok {
				want = tpch.Ref(q, opts.Data).Digest()
				wants[q] = want
			}
			if r == nil || r.Digest() != want {
				return nil, fmt.Errorf("workload: process %d returned a wrong %v answer", i, q)
			}
		}
	}

	st := &Stats{
		DiskReads:      db.DiskReads,
		WarmupHostNS:   warmupNS,
		MeasuredHostNS: measuredNS,
		MachineName:    spec.Name,
		ClockMHz:       spec.ClockMHz,
		Query:          opts.Query,
		Processes:      opts.Processes,
		Dir:            m.Directory().Stats,
		Sess: SessStats{
			BufMgrAcquires:   db.BufMgrLock.Acquires,
			BufMgrContended:  db.BufMgrLock.Contended,
			RelationAcquires: db.LockMgr.RelationAcquires,
		},
	}
	for _, sess := range sessions {
		if sess != nil {
			st.Sess.Pins += sess.Pins
		}
	}
	for _, p := range osys.Processes() {
		st.Regions.Add(&p.Regions)
	}
	for i, p := range osys.Processes() {
		st.Procs = append(st.Procs, ProcStats{
			Query:        queryOf(i),
			Counters:     *m.Counters(i),
			ThreadCycles: p.ThreadCycles(),
			WallCycles:   p.Now(),
			Vol:          p.VoluntarySwitches(),
			Invol:        p.InvoluntarySwitches(),
		})
	}
	if sampler != nil {
		for i := 0; i < opts.Processes; i++ {
			st.Sampling = append(st.Sampling, sampler.Estimate(i))
		}
	}
	return st, nil
}

// engineConfig derives the warmup prelude's engine configuration from opts;
// a cold run differs only in its empty pool and device-read latency.
func engineConfig(opts Options) engine.Config {
	ioLatency := uint64(0)
	if opts.ColdRun {
		scale := opts.OSTimeScale
		if scale < 1 {
			scale = 1
		}
		// 8 ms at the machine's clock, divided by the preset's time scale
		// like the select() back-off.
		ioLatency = uint64(opts.Spec.ClockMHz) * 8000 / uint64(scale)
		if ioLatency < 2000 {
			ioLatency = 2000
		}
	}
	return engine.Config{
		PoolPages:       tpch.PoolPagesFor(opts.Data),
		SpinLimit:       opts.SpinLimit,
		BufHeaderBytes:  opts.BufHeaderBytes,
		HintBitFraction: opts.HintBitFraction,
		ColdPool:        opts.ColdRun,
		IOLatency:       ioLatency,
	}
}

// RunTrials repeats a configuration n times with perturbed OS jitter and
// returns every trial's stats, mirroring the paper's methodology ("we
// perform the same test four times and use the average values").
func RunTrials(opts Options, n int) ([]*Stats, error) {
	return RunTrialsContext(context.Background(), opts, n)
}

// RunTrialsContext runs the trials concurrently: each trial is an independent
// single-threaded simulation, so they fan out across host cores, bounded by
// GOMAXPROCS. Trial i keeps the jitter seed opts.Trial+i it would get under
// serial execution, and the returned slice is in trial order, so results are
// byte-identical to the old serial path. The lowest-indexed failing trial's
// error is reported. When opts.Obs is non-nil the trials run serially: one
// observer cannot watch two concurrent simulations.
func RunTrialsContext(ctx context.Context, opts Options, n int) ([]*Stats, error) {
	if n < 1 {
		n = 1
	}
	limit := runtime.GOMAXPROCS(0)
	if limit < 1 || opts.Obs != nil {
		limit = 1
	}
	out := make([]*Stats, n)
	errs := make([]error, n)
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := opts
		o.Trial = opts.Trial + i
		o.Validate = true // same contract as Run
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, o Options) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = run(ctx, o)
		}(i, o)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
	}
	return out, nil
}

// MeanCounters averages the per-process counter files (the paper reports one
// bar per configuration).
func (s *Stats) MeanCounters() perfctr.Counters {
	var sum perfctr.Counters
	for i := range s.Procs {
		sum.Add(&s.Procs[i].Counters)
	}
	return scaleCounters(sum, len(s.Procs))
}

func scaleCounters(c perfctr.Counters, n int) perfctr.Counters {
	c.Scale(n)
	return c
}

// MeanThreadCycles averages thread time across processes.
func (s *Stats) MeanThreadCycles() float64 {
	var sum uint64
	for _, p := range s.Procs {
		sum += p.ThreadCycles
	}
	return float64(sum) / float64(len(s.Procs))
}

// MeanWallSeconds averages wall time and converts to seconds.
func (s *Stats) MeanWallSeconds() float64 {
	var sum uint64
	for _, p := range s.Procs {
		sum += p.WallCycles
	}
	return float64(sum) / float64(len(s.Procs)) / (float64(s.ClockMHz) * 1e6)
}
