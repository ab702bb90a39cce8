// Package service is the simulation-as-a-service layer: an HTTP API over the
// deterministic workload runner, backed by the persistent content-addressed
// result cache (internal/rescache) and a bounded, cancellation-aware worker
// pool.
//
// Endpoints:
//
//	GET /v1/measure?machine=vclass&query=Q6&procs=4[&trial=N][&cold=1]
//	GET /v1/figure/{id}      one of the paper's figures (2..10)
//	GET /v1/sweep?machine=origin&query=Q21
//	GET /healthz
//	GET /metrics             Prometheus text format
//
// Responses carry X-Cache: hit|miss and X-Digest headers. Identical
// in-flight requests are deduplicated to one simulation; a client disconnect
// aborts a run (at the next simulation scheduling quantum) once its last
// waiter is gone; results persist across daemon restarts when a cache
// directory is configured. A sweep interrupted by a crash resumes the same
// way: re-issuing it answers the finished points from the cache and computes
// only the rest.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/experiments"
	"dssmem/internal/fault"
	"dssmem/internal/machine"
	"dssmem/internal/rescache"
	"dssmem/internal/telemetry"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Preset selects the database/machine scale (experiments.PresetByName).
	Preset experiments.Preset
	// Data overrides the dataset generated from Preset. Generation is
	// deterministic, so a process hosting several servers can share one
	// generation across them all. nil = generate.
	Data *tpch.Data
	// CacheDir persists results across restarts ("" = memory only).
	CacheDir string
	// Store overrides the result store built from CacheDir (the chaos
	// harness wires one over a fault-injecting filesystem). nil = open from
	// CacheDir.
	Store *rescache.Store
	// Workers bounds concurrently executing simulations across all requests
	// (0 = GOMAXPROCS). Queued runs wait, cancellation-aware, for a slot.
	Workers int
	// MaxQueue bounds runs waiting for a worker slot (admission control):
	// beyond it, requests are shed immediately with 429 + Retry-After
	// instead of queueing unboundedly. 0 = 4×Workers; negative = unbounded.
	MaxQueue int
	// RunTimeout aborts any single simulation exceeding it (0 = no limit)
	// via the cooperative quantum-boundary interrupt.
	RunTimeout time.Duration
	// HardDeadline is the watchdog: a run still executing after it is
	// abandoned (its worker slot reclaimed, 504 returned) even if it never
	// honours cancellation — the backstop for wedged simulations. 0 picks
	// 2×RunTimeout when RunTimeout is set, else none; negative = none.
	HardDeadline time.Duration
	// EnvParallelism bounds the per-request fan-out inside figure/sweep
	// computations (0 = GOMAXPROCS). Total concurrency is still capped by
	// Workers, which gates at the simulation level.
	EnvParallelism int
	// Faults, when non-nil, arms the service-level fault sites (compute
	// panic/hang, scheduler stalls) for chaos testing. Disk sites are wired
	// separately, via Store over a fault.FS.
	Faults *fault.Injector
	// SampleQuanta, when > 1, is the daemon-wide default SMARTS sampling
	// period: requests that do not pass sample_quanta themselves run with
	// interval sampling at this period. Sampled results live under their own
	// content digests; 0 (or 1) keeps every run exact.
	SampleQuanta int
	// Log receives one structured line per API request (id, endpoint, status,
	// per-phase timings). nil disables request logging.
	Log *slog.Logger
	// RecentRequests sizes the /debug/requests completed-request ring
	// (0 = telemetry.DefaultRecent).
	RecentRequests int
}

// Server implements the HTTP API. Create with New, expose via Handler.
type Server struct {
	cfg   Config
	data  *tpch.Data
	store *rescache.Store
	sem   chan struct{}
	mux   *http.ServeMux
	start time.Time

	// base is cancelled by Close: it hard-aborts every in-flight run after
	// the HTTP layer has drained (or when draining is abandoned).
	base     context.Context
	baseStop context.CancelCauseFunc

	// reg owns every counter below: one registry is the single snapshot
	// mechanism for /metrics (no side ledgers, no torn mixed-source reads).
	reg     *telemetry.Registry
	tracker *telemetry.Tracker

	inflight *telemetry.Gauge   // simulations currently executing
	queued   *telemetry.Gauge   // runs admitted but not yet holding a worker slot
	runs     *telemetry.Counter // simulations started
	runErrs  *telemetry.Counter
	aborted  *telemetry.Counter
	shed     *telemetry.Counter // runs rejected by admission control
	wdKills  *telemetry.Counter // runs abandoned by the watchdog
	hung     *telemetry.Gauge   // abandoned runs that have not finished yet

	reqTotal     *telemetry.Counter
	reqErrors    *telemetry.Counter
	retries      *telemetry.Counter // requests arriving with X-Request-Attempt > 1
	runSeconds   *telemetry.Hist    // wall-clock simulation time
	reqSeconds   *telemetry.HistVec // end-to-end request latency, by endpoint
	phaseSeconds *telemetry.HistVec // per-phase time, by phase name

	// runHook replaces the workload runner in tests (nil = workload.RunContext).
	runHook func(context.Context, workload.Options) (*workload.Stats, error)
}

// errShutdown is the cancellation cause used when the server closes.
var errShutdown = errors.New("service: server shutting down")

// errOverloaded is returned by admission control when the wait queue is
// full; it maps to 429 + Retry-After.
var errOverloaded = errors.New("service: overloaded")

// errWatchdog marks a run abandoned by the hard-deadline watchdog; it maps
// to 504 (retriable — the next attempt gets a fresh run).
var errWatchdog = errors.New("service: watchdog abandoned wedged run")

// New builds a server: generates the preset's database (deterministic, so
// identical across restarts) and opens the result store.
func New(cfg Config) (*Server, error) {
	if cfg.Preset.Name == "" {
		return nil, fmt.Errorf("service: config needs a preset")
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = rescache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.Workers
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = int(^uint(0) >> 1) // effectively unbounded
	}
	if cfg.HardDeadline == 0 && cfg.RunTimeout > 0 {
		cfg.HardDeadline = 2 * cfg.RunTimeout
	}
	data := cfg.Data
	if data == nil {
		data = tpch.Generate(cfg.Preset.SF, cfg.Preset.Seed)
	}
	base, stop := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:      cfg,
		data:     data,
		store:    store,
		sem:      make(chan struct{}, cfg.Workers),
		start:    time.Now(),
		base:     base,
		baseStop: stop,
	}
	s.tracker = telemetry.NewTracker(cfg.RecentRequests)
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/requests", s.tracker)
	s.mux.Handle("GET /v1/measure", s.instrument("/v1/measure", s.handleMeasure))
	s.mux.Handle("GET /v1/figure/{id}", s.instrument("/v1/figure", s.handleFigure))
	s.mux.Handle("GET /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	return s, nil
}

// Handler returns the HTTP handler. Wire it into http.Server; graceful
// shutdown is the owner's job (http.Server.Shutdown drains in-flight
// requests, whose runs complete; call Close to hard-abort instead).
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the result store (metrics, tests).
func (s *Server) Store() *rescache.Store { return s.store }

// Registry exposes the metrics registry (the debug listener re-serves it).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// DebugRequests exposes the live request inspector (mounted at
// /debug/requests on the API mux; the debug listener mounts it too).
func (s *Server) DebugRequests() http.Handler { return s.tracker }

// Close hard-cancels every in-flight run: waiters are released with an error
// and the underlying simulations abort at their next scheduling quantum.
// Idempotent.
func (s *Server) Close() error {
	s.baseStop(errShutdown)
	return nil
}

// requestCtx derives the job context for one HTTP request: it ends when the
// client disconnects, or when the server closes.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(r.Context())
	stop := context.AfterFunc(s.base, func() { cancel(context.Cause(s.base)) })
	return ctx, func() { stop(); cancel(nil) }
}

// statusWriter captures the status an API handler wrote, for the request log
// and latency histogram.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps an API handler with request-scoped telemetry: every
// request gets an ID (the caller's X-Request-ID when well-formed, minted
// otherwise) that is echoed in the response, attached to the context for the
// cache/compute layers to charge phases against, tracked by the live
// inspector, observed into the latency and phase histograms, and emitted as
// one structured log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal.Inc()
		id := telemetry.CleanID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = telemetry.NewID()
		}
		q := telemetry.NewRequest(id, endpoint)
		if n, err := strconv.Atoi(r.Header.Get("X-Request-Attempt")); err == nil && n > 1 {
			q.Attempt = n
			s.retries.Inc()
		}
		w.Header().Set("X-Request-ID", id)
		s.tracker.Begin(q)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(telemetry.NewContext(r.Context(), q)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		outcome := "ok"
		if status >= 400 {
			outcome = "error"
		}
		q.Finish(status, outcome)
		s.reqSeconds.With(endpoint).Observe(q.Duration().Seconds())
		for _, ph := range q.Phases() {
			s.phaseSeconds.With(ph.Name).Observe(ph.Seconds)
		}
		s.tracker.End(q)
		s.logRequest(r, q)
	})
}

// logRequest emits the one structured line per request: identity, outcome,
// and the per-phase decomposition in milliseconds.
func (s *Server) logRequest(r *http.Request, q *telemetry.Request) {
	if s.cfg.Log == nil {
		return
	}
	v := q.View()
	args := []any{
		"req", v.ID,
		"endpoint", v.Endpoint,
		"query", r.URL.RawQuery,
		"status", v.Status,
		"outcome", v.Outcome,
		"duration_ms", v.DurationMS,
	}
	if v.Attempt > 1 {
		args = append(args, "attempt", v.Attempt)
	}
	if v.Digest != "" {
		args = append(args, "digest", v.Digest)
	}
	if v.Cache != "" {
		args = append(args, "cache", v.Cache)
	}
	for _, ph := range v.Phases {
		args = append(args, "phase_"+ph.Name+"_ms", ph.DurationMS)
	}
	level := slog.LevelInfo
	switch {
	case v.Status >= 500:
		level = slog.LevelError
	case v.Status >= 400:
		level = slog.LevelWarn
	}
	s.cfg.Log.Log(r.Context(), level, "request", args...)
}

// env builds a per-request experiment environment sharing the daemon's data
// and persistent store; the gated runner funnels every simulation through
// the worker pool.
func (s *Server) env(ctx context.Context) *experiments.Env {
	e := experiments.NewEnvWith(s.cfg.Preset, s.data)
	e.Results = s.store
	e.Ctx = ctx
	e.Runner = s.gatedRun
	if s.cfg.EnvParallelism > 0 {
		e.Parallelism = s.cfg.EnvParallelism
	}
	return e
}

// sampleQuanta resolves a request's effective sampling period: the
// sample_quanta query parameter when present, else the daemon default. The
// caller folds a non-zero result into the request's content digest (sampled
// results must never collide with exact ones).
func (s *Server) sampleQuanta(r *http.Request) (int, error) {
	v := r.URL.Query().Get("sample_quanta")
	if v == "" {
		if s.cfg.SampleQuanta > 1 {
			return s.cfg.SampleQuanta, nil
		}
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad sample_quanta %q", v)
	}
	if n <= 1 {
		return 0, nil // exact; 1 cannot sample (the controller clamps to 2)
	}
	return n, nil
}

// gatedRun is the run lifecycle: admission control (bounded wait queue with
// fast shedding), cancellation-aware worker-slot acquisition, per-run
// timeout, fault injection, and the hard-deadline watchdog. Panic isolation
// for the simulation itself lives one level up, in rescache.Store.Do, which
// owns the compute goroutine; the watchdog goroutine here has its own
// recover so an injected panic surfaces as an error either way.
func (s *Server) gatedRun(ctx context.Context, opts workload.Options) (*workload.Stats, error) {
	req := telemetry.FromContext(ctx)
	// Admission control: take a free worker slot if one exists; otherwise
	// wait only while the bounded queue has room, and past that shed
	// immediately — a bounded queue with a fast 429 beats an unbounded one
	// with unbounded latency.
	select {
	case s.sem <- struct{}{}:
	default:
		if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			s.shed.Inc()
			return nil, fmt.Errorf("service: wait queue full (%d workers busy, %d queued): %w",
				s.cfg.Workers, s.cfg.MaxQueue, errOverloaded)
		}
		endQueue := req.StartPhase(telemetry.PhaseQueue)
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
			endQueue()
		case <-ctx.Done():
			s.queued.Add(-1)
			endQueue()
			s.aborted.Inc()
			return nil, fmt.Errorf("service: run cancelled while queued: %w", context.Cause(ctx))
		}
	}
	defer func() { <-s.sem }()

	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.RunTimeout, fmt.Errorf("service: run exceeded %v", s.cfg.RunTimeout))
		defer cancel()
	}
	// The run gets its own cancellable context so the watchdog can abort a
	// cooperative run it is abandoning.
	runCtx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)

	run := workload.RunContext
	if s.runHook != nil {
		run = s.runHook
	}
	inj := s.cfg.Faults
	s.inflight.Add(1)
	s.runs.Inc()
	begin := time.Now()

	type result struct {
		st  *workload.Stats
		err error
	}
	resc := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			s.inflight.Add(-1)
			d := time.Since(begin)
			s.runSeconds.Observe(d.Seconds())
			req.AddPhase(telemetry.PhaseCompute, d)
			if p := recover(); p != nil {
				r = result{err: fmt.Errorf("service: run: %w: %v", rescache.ErrPanicked, p)}
			}
			resc <- r
		}()
		if inj.Hit(fault.ComputePanic) {
			panic(fmt.Errorf("%w: compute panic", fault.ErrInjected))
		}
		if inj.Hit(fault.ComputeHang) {
			// A wedged simulation: ignores cancellation entirely. Unblocked
			// only by server Close so the goroutine does not outlive tests.
			<-s.base.Done()
			r = result{err: fmt.Errorf("service: hung run released by shutdown: %w", errShutdown)}
			return
		}
		if inj != nil {
			opts.SimFault = s.simFault
		}
		st, err := run(runCtx, opts)
		r = result{st: st, err: err}
	}()

	var watchdog <-chan time.Time
	if s.cfg.HardDeadline > 0 {
		t := time.NewTimer(s.cfg.HardDeadline)
		defer t.Stop()
		watchdog = t.C
	}
	select {
	case r := <-resc:
		if r.err != nil {
			s.runErrs.Add(1)
			if ctx.Err() != nil {
				s.aborted.Add(1)
			}
		}
		return r.st, r.err
	case <-watchdog:
		// The run blew through even the hard deadline: the quantum-boundary
		// interrupt never fired (wedged scheduler, hung hook). Abandon it —
		// reclaim the worker slot now, cancel what can be cancelled, and
		// account for the zombie until it actually exits.
		s.wdKills.Add(1)
		s.runErrs.Add(1)
		s.hung.Add(1)
		cancelRun(errWatchdog)
		go func() {
			<-resc
			s.hung.Add(-1)
		}()
		return nil, fmt.Errorf("service: run exceeded hard deadline %v: %w", s.cfg.HardDeadline, errWatchdog)
	}
}

// simFault is the quantum-boundary hook handed to the simulation kernel
// when fault injection is armed: SimStall sleeps wall-clock time mid-run
// (simulated clocks and results untouched). The hook fires at every quantum
// boundary — hundreds of times per run — so only per-boundary sites belong
// here; per-run sites (ComputeHang, ComputePanic) are drawn once in gatedRun,
// where one probability roll maps to one run.
func (s *Server) simFault() {
	inj := s.cfg.Faults
	if inj.Hit(fault.SimStall) {
		time.Sleep(inj.StallFor())
	}
}

// --- handlers ---

// handleHealthz reports liveness plus the degradation state. The status is
// "ok" when fully healthy and "degraded" while the result store's disk tier
// is tripped to memory-only (results still correct, persistence suspended).
// Always 200: a degraded daemon is serving, not dead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	cs := s.store.Stats()
	status := "ok"
	if cs.Degraded {
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status   string `json:"status"`
		Preset   string `json:"preset"`
		Cache    string `json:"cache_breaker"`
		Inflight int64  `json:"runs_inflight"`
		Queued   int64  `json:"runs_queued"`
		Hung     int64  `json:"runs_abandoned_live"`
		UptimeS  int64  `json:"uptime_seconds"`
	}{status, s.cfg.Preset.Name, cs.Breaker, s.inflight.Load(), s.queued.Load(), s.hung.Load(), int64(time.Since(s.start).Seconds())})
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	ctx, done := s.requestCtx(r)
	defer done()

	spec, err := parseMachine(r.URL.Query().Get("machine"), r.URL.Query().Get("cpus"), s.cfg.Preset.MemScale)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	q, err := tpch.QueryByName(r.URL.Query().Get("query"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	procs, err := parseIntDefault(r.URL.Query().Get("procs"), 1)
	if err != nil || procs < 1 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad procs %q", r.URL.Query().Get("procs")))
		return
	}
	if procs > spec.CPUs {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("procs %d exceed the machine's %d CPUs", procs, spec.CPUs))
		return
	}
	trial, err := parseIntDefault(r.URL.Query().Get("trial"), 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad trial %q", r.URL.Query().Get("trial")))
		return
	}
	sq, err := s.sampleQuanta(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	opts := workload.Options{
		Spec:         spec,
		Trial:        trial,
		ColdRun:      boolParam(r, "cold"),
		SampleQuanta: sq,
	}

	env := s.env(ctx)
	m, hit, err := env.MeasureCached(spec.Name, q, procs, opts)
	if err != nil {
		s.failRun(w, err)
		return
	}
	dig := rescache.DigestOptions(s.cfg.Preset.SF, s.cfg.Preset.Seed, env.CanonicalOptions(q, procs, opts))
	s.respond(w, r, hit, dig, struct {
		Digest      string           `json:"digest"`
		Cache       string           `json:"cache"`
		Measurement core.Measurement `json:"measurement"`
	}{string(dig), cacheWord(hit), m})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	ctx, done := s.requestCtx(r)
	defer done()

	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad figure id %q", r.PathValue("id")))
		return
	}
	if ids := experiments.FigureIDs(); !slices.Contains(ids, id) {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no figure %d (have %v)", id, ids))
		return
	}
	sq, err := s.sampleQuanta(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	dig, err := figureDigest(s.cfg.Preset, id, sq)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	raw, hit, err := s.store.Do(ctx, rescache.NSFigure, dig, func(runCtx context.Context) ([]byte, error) {
		env := s.env(runCtx)
		env.SampleQuanta = sq
		res, err := experiments.RunFigure(env, id, nil)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	if err != nil {
		s.failRun(w, err)
		return
	}
	s.respondRaw(w, r, hit, dig, raw)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, done := s.requestCtx(r)
	defer done()

	spec, err := parseMachine(r.URL.Query().Get("machine"), r.URL.Query().Get("cpus"), s.cfg.Preset.MemScale)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	q, err := tpch.QueryByName(r.URL.Query().Get("query"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if maxProcs := slices.Max(experiments.ProcCounts); spec.CPUs < maxProcs {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("a sweep runs up to %d processes; cpus %d is too few", maxProcs, spec.CPUs))
		return
	}
	sq, err := s.sampleQuanta(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	dig, err := sweepDigest(s.cfg.Preset, spec, q, sq)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	// Each point is cached under its own measurement digest as it finishes,
	// so a sweep cut short (client gone, daemon killed) recomputes only the
	// points it had not finished when re-issued.
	raw, hit, err := s.store.Do(ctx, rescache.NSSweep, dig, func(runCtx context.Context) ([]byte, error) {
		env := s.env(runCtx)
		env.SampleQuanta = sq
		series, err := env.Sweep(spec.Name, spec, q, workload.Options{})
		if err != nil {
			return nil, err
		}
		return json.Marshal(series)
	})
	if err != nil {
		s.failRun(w, err)
		return
	}
	s.respondRaw(w, r, hit, dig, raw)
}

// --- content digests ---

// figureDigest is the content address of one figure result under preset p,
// computed with SMARTS interval sampling at the given period. sampleQuanta 0
// encodes to exactly the pre-sampling digest (omitempty), so existing exact
// caches stay valid; any other period addresses its own estimated result.
func figureDigest(p experiments.Preset, id, sampleQuanta int) (rescache.Digest, error) {
	return rescache.DigestJSON(struct {
		Schema       int                `json:"schema"`
		Kind         string             `json:"kind"`
		Preset       experiments.Preset `json:"preset"`
		Figure       int                `json:"figure"`
		Procs        []int              `json:"procs"`
		SampleQuanta int                `json:"sample_quanta,omitempty"`
	}{1, "figure", p, id, experiments.ProcCounts, sampleQuanta})
}

// sweepDigest is the content address of one sweep result under preset p (see
// figureDigest for the sampling compatibility contract).
func sweepDigest(p experiments.Preset, spec machine.Spec, q tpch.QueryID, sampleQuanta int) (rescache.Digest, error) {
	return rescache.DigestJSON(struct {
		Schema       int                `json:"schema"`
		Kind         string             `json:"kind"`
		Preset       experiments.Preset `json:"preset"`
		Machine      machine.Spec       `json:"machine"`
		Query        string             `json:"query"`
		Procs        []int              `json:"procs"`
		SampleQuanta int                `json:"sample_quanta,omitempty"`
	}{1, "sweep", p, spec, q.String(), experiments.ProcCounts, sampleQuanta})
}

// MeasureDigest is the content address of one measurement under preset p:
// the canonical digest of the fully-defaulted workload options, identical to
// what the measure and sweep paths compute server-side.
func MeasureDigest(p experiments.Preset, q tpch.QueryID, procs int, opts workload.Options) rescache.Digest {
	env := &experiments.Env{Preset: p}
	return rescache.DigestOptions(p.SF, p.Seed, env.CanonicalOptions(q, procs, opts))
}

// --- response helpers ---

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (s *Server) respond(w http.ResponseWriter, r *http.Request, hit bool, dig rescache.Digest, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	s.respondRaw(w, r, hit, dig, b)
}

func (s *Server) respondRaw(w http.ResponseWriter, r *http.Request, hit bool, dig rescache.Digest, body []byte) {
	q := telemetry.FromContext(r.Context())
	q.SetDigest(string(dig))
	q.SetCache(cacheWord(hit))
	defer q.StartPhase(telemetry.PhaseEncode)()
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cacheWord(hit))
	h.Set("X-Digest", string(dig))
	w.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

// failRun maps run errors to HTTP statuses. Transient conditions — load
// shedding, watchdog kills, timeouts, shutdown, isolated compute panics —
// are retriable (the digest was never cached, so the next attempt computes
// fresh); everything else is a 500.
func (s *Server) failRun(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, errWatchdog), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errShutdown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, rescache.ErrPanicked):
		// Isolated and not cached; a retry gets a clean run.
		status = http.StatusServiceUnavailable
	}
	s.fail(w, status, err)
}

// retriableStatus reports whether a status tells the caller to retry: the
// request was well-formed and a later identical attempt can succeed.
func retriableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterSeconds estimates when capacity frees up: mean run latency
// scaled by queue pressure, clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	latCount, latSum := s.runSeconds.Snapshot()
	mean := 1.0
	if latCount > 0 {
		mean = latSum / float64(latCount)
	}
	est := int(mean*float64(s.queued.Load()+1)/float64(s.cfg.Workers)) + 1
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// fail writes the structured error body every non-200 response carries:
// {"error": ..., "retriable": bool, "status": N}. Retriable responses also
// carry Retry-After, the server's estimate of when to try again.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.reqErrors.Inc()
	retriable := retriableStatus(status)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if retriable {
		h.Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error     string `json:"error"`
		Retriable bool   `json:"retriable"`
		Status    int    `json:"status"`
	}{err.Error(), retriable, status})
}

// --- parameter parsing ---

// parseMachine resolves the machine/cpus API parameters into a validated spec
// at the given memory scale; a spec machine.New would reject is a bad
// request, not a failed run.
func parseMachine(name, cpus string, memScale int) (machine.Spec, error) {
	n := 0 // the platform's full size
	if cpus != "" {
		var err error
		if n, err = strconv.Atoi(cpus); err != nil || n < 1 {
			return machine.Spec{}, fmt.Errorf("bad cpus %q", cpus)
		}
	}
	return machine.SpecByName(name, n, memScale)
}

func parseIntDefault(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func boolParam(r *http.Request, name string) bool {
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
