// Package workload runs the paper's experimental configurations: N
// processes pinned to distinct CPUs of a simulated machine, each running a
// Program (by default one TPC-H query), with hardware counters collected
// over the measured region and the results validated by the program.
// RunContext is the one place a simulation is built, run and measured.
package workload

import (
	"context"
	"errors"
	"fmt"
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
	Spec  machine.Spec
	Data  *tpch.Data
	Query tpch.QueryID
	// Program, when non-nil, is what the processes run, and Query only
	// labels the stats; nil means Queries(Query). No content digest covers
	// a program, so experiments.Env.MeasureCached rejects one.
	Program   Program
	Processes int
	// SpinLimit overrides the DBMS spin-before-backoff count (0 = default).
	SpinLimit int
	// BufHeaderBytes overrides the buffer-descriptor stride (0 = default).
	BufHeaderBytes int
	// OSTimeScale divides the select() back-off to match a scaled-down
	// machine (pass the memory-scale factor; 0 = 1).
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
	// counter sampling, the structured event trace, and per-operator and
	// per-region attribution, per its configuration. The observer is
	// rebound to this run's CPU count and clock; observation is passive
	// and does not perturb counters or timing.
	Obs *obs.Observer
	// SampleQuanta enables SMARTS-style interval sampling with the given
	// period in scheduling quanta: of every SampleQuanta quanta per CPU, the
	// first is simulated in detail and measured, the last is simulated in
	// detail as functional warming, and the rest fast-forward with estimated
	// timing (see obs.SamplingController). 0 or 1 means exact simulation.
	// Sampled counters are estimates, so SampleQuanta is part of the result
	// identity (rescache digests sampled and exact runs differently). No
	// command or endpoint sets it; it stays for the benchmark's fig5-sampled
	// workload and the accuracy gate.
	SampleQuanta int
}

// ProcStats is one process's measured region.
type ProcStats struct {
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
	// processes (the paper's record/index/metadata/private taxonomy). Only
	// an observer with region attribution on (obs.Config.Regions) fills
	// it; it is all zero otherwise.
	Regions perfctr.RegionCounters
	// DiskReads counts cold-pool device reads (0 for warm runs).
	DiskReads uint64
	// WarmupHostNS and MeasuredHostNS split the run's host wall-clock time
	// between the warmup prelude (Program.Load) and the measured region
	// (simulation). A query run's prelude is the bulk load for the first run
	// per data set and layout, and a reopen of that load (microseconds) for
	// every later one. Host-side accounting only: core.FromStats ignores
	// them. They are excluded from the JSON encoding: Stats JSON must stay a
	// pure function of Options for digest-keyed caching and determinism tests.
	WarmupHostNS   int64 `json:"-"`
	MeasuredHostNS int64 `json:"-"`
	// Sampling carries each process's detailed and fast-forwarded volume
	// when the run was sampled; nil for exact runs. Host-side diagnostics
	// only, like WarmupHostNS. The benchmark's fig5-sampled workload reads it.
	Sampling []obs.SampleEstimate
}

// SessStats aggregates DBMS-level instrumentation across processes.
type SessStats struct {
	Pins             uint64
	BufMgrAcquires   uint64
	BufMgrContended  uint64
	RelationAcquires uint64
}

// Program is what a run's processes execute. Load returns the run's
// database and is the warm-up prelude: a program that only reads the pool
// may reopen a shared load, and one that writes it loads its own. Run is one
// process's body, on a session whose PID is the process index; Check
// validates the results once every process has finished. Everything else
// (the machine, the OS, observation, sampling, cancellation and the Stats)
// belongs to the run. A Program value may keep per-run state, so it serves
// one run at a time.
type Program interface {
	Load(Options) (*engine.Database, error)
	Run(*simos.Process, *engine.Session) error
	Check(Options) error
}

// Queries is the TPC-H program: process i runs qs[i%len(qs)] on a reopen of
// the data's shared bulk load (tpch.Open), and Check compares each answer
// with the data's reference digest (tpch.RefDigest). Several queries model
// the reading of the paper's §4 title ("Multiple (Diff) Query Execution") in
// which the concurrent processes run different queries.
func Queries(qs ...tpch.QueryID) Program { return &queries{qs: qs} }

type queries struct {
	qs      []tpch.QueryID
	results []*tpch.Result
}

func (w *queries) Load(opts Options) (*engine.Database, error) {
	if opts.Data == nil {
		return nil, fmt.Errorf("workload: no data")
	}
	if len(w.qs) == 0 {
		return nil, fmt.Errorf("workload: no queries")
	}
	w.results = make([]*tpch.Result, opts.Processes)
	return tpch.Open(opts.Data, engineConfig(opts)), nil
}

func (w *queries) Run(p *simos.Process, s *engine.Session) error {
	q := w.qs[s.PID%len(w.qs)]
	p.BeginOp("query:" + q.String())
	w.results[s.PID] = tpch.Run(q, s)
	p.EndOp()
	return nil
}

func (w *queries) Check(opts Options) error {
	for i, r := range w.results {
		q := w.qs[i%len(w.qs)]
		if r == nil || r.Digest() != tpch.RefDigest(q, opts.Data) {
			return fmt.Errorf("workload: process %d returned a wrong %v answer", i, q)
		}
	}
	return nil
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
	if err := opts.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if opts.Processes <= 0 {
		return nil, fmt.Errorf("workload: need at least one process")
	}
	if opts.Processes > opts.Spec.CPUs {
		return nil, fmt.Errorf("workload: %d processes exceed %d CPUs", opts.Processes, opts.Spec.CPUs)
	}
	if ctx != nil && ctx.Err() != nil {
		// The interrupt below lands asynchronously, so a short run could
		// otherwise finish before it and return a result nobody asked for.
		return nil, fmt.Errorf("workload: run aborted: %w", context.Cause(ctx))
	}

	prog := opts.Program
	if prog == nil {
		prog = Queries(opts.Query)
	}
	preludeStart := time.Now()
	db, err := prog.Load(opts)
	if err != nil {
		return nil, err
	}
	warmupNS := time.Since(preludeStart).Nanoseconds()

	spec := opts.Spec
	spec.SharedLimit = db.SharedBytes // dense directory covers all shared data
	m := machine.New(spec)

	osCfg := simos.DefaultConfigScaled(spec.ClockMHz, opts.OSTimeScale)
	osCfg.Seed += uint64(opts.Trial)
	osys := simos.New(m, osCfg, sim.DefaultQuantum)

	if opts.Obs != nil {
		opts.Obs.Bind(spec.CPUs, spec.ClockMHz)
		opts.Obs.BindRegions(db.Classify)
		m.Observe(opts.Obs)
		osys.Observe(opts.Obs)
	}
	var sampler *obs.SamplingController
	if opts.SampleQuanta > 1 {
		sampler = obs.NewSamplingController(spec.CPUs, uint64(sim.DefaultQuantum), opts.SampleQuanta)
		osys.SetSampling(sampler)
	}

	sessions := make([]*engine.Session, opts.Processes)
	errs := make([]error, opts.Processes)
	for i := 0; i < opts.Processes; i++ {
		osys.Spawn(i, func(p *simos.Process) {
			sessions[i] = db.NewSession(p, i)
			errs[i] = prog.Run(p, sessions[i])
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
	for _, err := range errs {
		if err != nil {
			return nil, err // the lowest-index failing process's
		}
	}
	if err := prog.Check(opts); err != nil {
		return nil, err
	}

	st := &Stats{
		DiskReads:      db.DiskReads,
		Regions:        opts.Obs.Regions(),
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
	for i, p := range osys.Processes() {
		if sampler != nil {
			// Estimate the event counters the fast-forwarded quanta skipped
			// from the measured windows' rates; the estimated counter file
			// then flows through the normal Stats -> Measurement pipeline.
			sampler.Extrapolate(i, m.Counters(i))
			st.Sampling = append(st.Sampling, sampler.Estimate(i))
		}
		st.Sess.Pins += sessions[i].Pins
		st.Procs = append(st.Procs, ProcStats{
			Counters:     *m.Counters(i),
			ThreadCycles: p.ThreadCycles(),
			WallCycles:   p.Now(),
			Vol:          p.VoluntarySwitches(),
			Invol:        p.InvoluntarySwitches(),
		})
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
// returns every trial's stats in trial order, mirroring the paper's
// methodology ("we perform the same test four times and use the average
// values"). Trial i runs with jitter seed opts.Trial+i, one after another;
// the first failing trial's error is returned.
func RunTrials(opts Options, n int) ([]*Stats, error) {
	if n < 1 {
		n = 1
	}
	out := make([]*Stats, n)
	for i := range out {
		o := opts
		o.Trial = opts.Trial + i
		st, err := Run(o)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		out[i] = st
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
	sum.Scale(len(s.Procs))
	return sum
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
