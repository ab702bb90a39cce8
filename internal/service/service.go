// Package service is the simulation-as-a-service layer: an HTTP API over the
// deterministic workload runner, backed by the persistent content-addressed
// result cache (internal/rescache) and a bounded, cancellation-aware worker
// pool.
//
// Endpoints:
//
//	GET /v1/measure?machine=vclass&query=Q6&procs=4[&cpus=N][&trial=N][&cold=1]
//	GET /v1/figure/{id}      one of the paper's figures (2..10)
//	GET /v1/sweep?machine=origin&query=Q21[&cpus=N]
//	GET /healthz
//	GET /metrics             Prometheus text format
//
// Each /v1 endpoint takes only the parameters shown, each at most once;
// anything else is a 400 that names the parameter.
//
// Responses carry X-Digest, the content address of the result, and X-Cache:
// hit when every measurement the response needed came from the result store
// without waiting on a simulation, miss otherwise. Only measurements are
// stored; figures and sweeps are rendered from them on every request.
// Identical in-flight requests are deduplicated to one simulation; a client
// disconnect aborts a run (at the next simulation scheduling quantum) once
// its last waiter is gone; results persist across daemon restarts when a
// cache directory is configured. A sweep interrupted by a crash resumes the
// same way: re-issuing it answers the finished points from the cache and
// computes only the rest.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/experiments"
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
	// Log receives one structured line per API request (endpoint, status,
	// per-phase timings). nil disables request logging.
	Log *slog.Logger
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
	reg *telemetry.Registry

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
	runSeconds   *telemetry.Hist    // wall-clock simulation time
	reqSeconds   *telemetry.HistVec // end-to-end request latency, by endpoint
	phaseSeconds *telemetry.HistVec // per-phase time, by phase name

	// runHook replaces the workload runner in tests (nil = workload.RunContext).
	// It is how tests inject run faults (panics, hangs, slow runs): inside
	// the same admission, timeout, watchdog and panic boundary as a real run.
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
	s.initMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
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

// instrument wraps an API handler with request-scoped telemetry: a
// *telemetry.Request on the context for the cache/compute layers to charge
// phases against, observed into the latency and phase histograms and emitted
// as one structured log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal.Inc()
		begin := time.Now()
		q := telemetry.NewRequest()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(telemetry.NewContext(r.Context(), q)))
		d := time.Since(begin)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		phases := q.Phases()
		s.reqSeconds.With(endpoint).Observe(d.Seconds())
		for _, ph := range phases {
			s.phaseSeconds.With(ph.Name).Observe(ph.Seconds)
		}
		s.logRequest(r, endpoint, status, w.Header(), d, phases)
	})
}

// logRequest emits the one structured line per request: outcome, the
// response's digest and cache word, and the per-phase decomposition in
// milliseconds.
func (s *Server) logRequest(r *http.Request, endpoint string, status int, h http.Header, d time.Duration, phases []telemetry.Phase) {
	if s.cfg.Log == nil {
		return
	}
	outcome := "ok"
	if status >= 400 {
		outcome = "error"
	}
	args := []any{
		"endpoint", endpoint,
		"query", r.URL.RawQuery,
		"status", status,
		"outcome", outcome,
		"duration_ms", float64(d.Microseconds()) / 1e3,
	}
	if v := h.Get("X-Digest"); v != "" {
		args = append(args, "digest", v)
	}
	if v := h.Get("X-Cache"); v != "" {
		args = append(args, "cache", v)
	}
	for _, ph := range phases {
		args = append(args, "phase_"+ph.Name+"_ms", ph.Seconds*1e3)
	}
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	s.cfg.Log.Log(r.Context(), level, "request", args...)
}

// env builds a per-request experiment environment sharing the daemon's data
// and persistent store; the gated runner funnels every simulation through
// the worker pool.
func (s *Server) env(ctx context.Context) *experiments.Env {
	par := s.cfg.EnvParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &experiments.Env{
		Preset:      s.cfg.Preset,
		Data:        s.data,
		Results:     s.store,
		Ctx:         ctx,
		Runner:      s.gatedRun,
		Parallelism: par,
	}
}

// gatedRun is the run lifecycle: admission control (bounded wait queue with
// fast shedding), cancellation-aware worker-slot acquisition, per-run
// timeout and the hard-deadline watchdog. Panic isolation for the simulation
// itself lives one level up, in rescache.Store.Do, which owns the compute
// goroutine; the run goroutine here has its own recover so a panicking run
// surfaces as an error either way.
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
		// interrupt never fired (a wedged scheduler, or a process body that
		// never hands control back to it). Abandon it —
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

	v, err := params(r, "machine", "cpus", "query", "procs", "trial", "cold")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	spec, err := parseMachine(v.Get("machine"), v.Get("cpus"), s.cfg.Preset.MemScale)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	q, err := tpch.QueryByName(v.Get("query"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	procs, err := parseIntDefault(v.Get("procs"), 1)
	if err != nil || procs < 1 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad procs %q", v.Get("procs")))
		return
	}
	if procs > spec.CPUs {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("procs %d exceed the machine's %d CPUs", procs, spec.CPUs))
		return
	}
	trial, err := parseIntDefault(v.Get("trial"), 0)
	if err != nil || trial < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad trial %q (must be at least 0)", v.Get("trial")))
		return
	}
	cold, err := parseBool("cold", v.Get("cold"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	opts := workload.Options{Spec: spec, Trial: trial, ColdRun: cold}

	m, dig, hit, err := s.env(ctx).MeasureCached(spec.Name, q, procs, opts)
	if err != nil {
		s.failRun(w, err)
		return
	}
	s.respond(w, r, hit, dig, struct {
		Digest      string           `json:"digest"`
		Cache       string           `json:"cache"`
		Measurement core.Measurement `json:"measurement"`
	}{string(dig), cacheWord(hit), m})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	ctx, done := s.requestCtx(r)
	defer done()

	if _, err := params(r); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad figure id %q", r.PathValue("id")))
		return
	}
	if ids := experiments.FigureIDs(); !slices.Contains(ids, id) {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no figure %d (have %v)", id, ids))
		return
	}
	dig, err := figureDigest(s.cfg.Preset, id)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	res, err := experiments.RunFigure(s.env(ctx), id, nil)
	if err != nil {
		s.failRun(w, err)
		return
	}
	s.respond(w, r, !telemetry.FromContext(ctx).Missed(), dig, res)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, done := s.requestCtx(r)
	defer done()

	v, err := params(r, "machine", "cpus", "query")
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	spec, err := parseMachine(v.Get("machine"), v.Get("cpus"), s.cfg.Preset.MemScale)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	q, err := tpch.QueryByName(v.Get("query"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if maxProcs := slices.Max(experiments.ProcCounts); spec.CPUs < maxProcs {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("a sweep runs up to %d processes; cpus %d is too few", maxProcs, spec.CPUs))
		return
	}
	dig, err := sweepDigest(s.cfg.Preset, spec, q)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	// Each point is cached under its own measurement digest as it finishes,
	// so a sweep cut short (client gone, daemon killed) recomputes only the
	// points it had not finished when re-issued.
	series, err := s.env(ctx).Sweep(spec.Name, spec, q, workload.Options{})
	if err != nil {
		s.failRun(w, err)
		return
	}
	s.respond(w, r, !telemetry.FromContext(ctx).Missed(), dig, series)
}

// --- content digests ---

// figureDigest is the content address of one figure result under preset p:
// the response's X-Digest. Figures are not stored under it; they are
// rendered from their cells.
func figureDigest(p experiments.Preset, id int) (rescache.Digest, error) {
	return rescache.DigestJSON(struct {
		Schema int                `json:"schema"`
		Kind   string             `json:"kind"`
		Preset experiments.Preset `json:"preset"`
		Figure int                `json:"figure"`
		Procs  []int              `json:"procs"`
	}{1, "figure", p, id, experiments.ProcCounts})
}

// sweepDigest is the content address of one sweep result under preset p.
func sweepDigest(p experiments.Preset, spec machine.Spec, q tpch.QueryID) (rescache.Digest, error) {
	return rescache.DigestJSON(struct {
		Schema  int                `json:"schema"`
		Kind    string             `json:"kind"`
		Preset  experiments.Preset `json:"preset"`
		Machine machine.Spec       `json:"machine"`
		Query   string             `json:"query"`
		Procs   []int              `json:"procs"`
	}{1, "sweep", p, spec, q.String(), experiments.ProcCounts})
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

// respond writes v as a newline-terminated JSON body with the X-Cache and
// X-Digest headers, charging the write to the encode phase.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, hit bool, dig rescache.Digest, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	defer telemetry.FromContext(r.Context()).StartPhase(telemetry.PhaseEncode)()
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cacheWord(hit))
	h.Set("X-Digest", string(dig))
	w.Write(append(body, '\n'))
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

// params parses a request's query string once and holds it to the rule every
// /v1 endpoint shares: only the endpoint's own parameters, each at most
// once. Anything else is an error naming the first offender in sorted key
// order, so a misspelled, unknown or repeated parameter is a bad request,
// never a different run than the caller asked for.
func params(r *http.Request, allowed ...string) (url.Values, error) {
	v, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return nil, fmt.Errorf("bad query string: %v", err)
	}
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !slices.Contains(allowed, k) {
			takes := "none"
			if len(allowed) > 0 {
				takes = strings.Join(allowed, ", ")
			}
			return nil, fmt.Errorf("unknown parameter %q (this endpoint takes %s)", k, takes)
		}
		if n := len(v[k]); n > 1 {
			return nil, fmt.Errorf("parameter %q given %d times (at most once)", k, n)
		}
	}
	return v, nil
}

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

// parseBool reads flag parameter name's value v: 1, true, yes or on (any
// case) is true; 0, false, no, off or an absent parameter is false; anything
// else is an error naming the value, so a typo never silently selects the
// default.
func parseBool(name, v string) (bool, error) {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true, nil
	case "", "0", "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("bad %s %q (want 1/true/yes/on or 0/false/no/off)", name, v)
}
