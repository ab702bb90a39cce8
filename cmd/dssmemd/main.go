// Command dssmemd serves the paper's simulations over HTTP: measurements,
// figures and sweeps computed on demand, deduplicated in flight, and cached
// in a persistent content-addressed store so nothing deterministic is ever
// simulated twice.
//
// Usage:
//
//	dssmemd [-addr :8077] [-preset tiny|small|medium] [-cache-dir DIR]
//	        [-workers N] [-run-timeout D] [-env-parallelism N]
//	        [-drain-timeout D] [-max-queue N] [-hard-deadline D]
//	        [-log-format json|text] [-debug-addr ADDR]
//
// Overload and failure handling (DESIGN.md §10): requests beyond the worker
// pool wait in a bounded queue (-max-queue); past that they are shed with
// 429 + Retry-After. -hard-deadline arms a watchdog that abandons any
// simulation still running past the deadline, even one wedged beyond the
// reach of cooperative cancellation. Failure drills run in tests: TestChaos
// (internal/service) injects disk and run faults through two test seams into
// these same code paths.
//
// Telemetry (DESIGN.md §12): every request is logged as one structured line
// with per-phase timings and measured into per-endpoint and per-phase
// histograms on /metrics. -debug-addr opens a second listener with
// net/http/pprof plus the same /metrics — keep it private; the main listener
// never exposes pprof.
//
// Endpoints (see internal/service):
//
//	curl localhost:8077/v1/figure/2
//	curl 'localhost:8077/v1/measure?machine=origin&query=Q21&procs=8'
//	curl 'localhost:8077/v1/sweep?machine=vclass&query=Q6'
//	curl localhost:8077/healthz
//	curl localhost:8077/metrics
//
// The first SIGINT/SIGTERM drains gracefully: new connections are refused,
// in-flight requests (and their simulations) run to completion, bounded by
// -drain-timeout. A second signal — or the drain deadline — aborts the
// remaining simulations at their next scheduling quantum and exits.
//
// A sweep cut short by a crash needs no journal to resume: each finished
// point is already in the -cache-dir store, so re-issuing the sweep after a
// restart simulates only the points that were still missing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dssmem"
	"dssmem/internal/service"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	preset := flag.String("preset", "medium", "scale preset: tiny, small or medium")
	cacheDir := flag.String("cache-dir", "dssmemd-cache", "persistent result cache directory ('' = memory only)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 10*time.Minute, "per-simulation ceiling (0 = none)")
	envPar := flag.Int("env-parallelism", 0, "per-figure sweep fan-out (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget before in-flight runs are aborted")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a worker before shedding with 429 (0 = 4x workers, <0 = unbounded)")
	hardDeadline := flag.Duration("hard-deadline", 0, "watchdog deadline after which a run is abandoned (0 = 2x run-timeout, <0 = none)")
	logFormat := flag.String("log-format", "json", "log output format: json or text")
	debugAddr := flag.String("debug-addr", "", "private debug listener with pprof and /metrics ('' = off)")
	flag.Parse()
	// A negative value would silently mean the default (GOMAXPROCS) or turn
	// the protection off (no run timeout and no watchdog, or an instant
	// drain); -max-queue and -hard-deadline document their negative values.
	usage := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "dssmemd: "+format+"\n", a...)
		os.Exit(1)
	}
	switch {
	case *workers < 0:
		usage("bad -workers %d (must be at least 0; 0 = GOMAXPROCS)", *workers)
	case *envPar < 0:
		usage("bad -env-parallelism %d (must be at least 0; 0 = GOMAXPROCS)", *envPar)
	case *runTimeout < 0:
		usage("bad -run-timeout %v (must be at least 0; 0 = none)", *runTimeout)
	case *drainTimeout < 0:
		usage("bad -drain-timeout %v (must be at least 0)", *drainTimeout)
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dssmemd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	p, err := dssmem.PresetByName(*preset)
	if err != nil {
		fatal("bad preset", err)
	}

	cfg := service.Config{
		Preset:         p,
		CacheDir:       *cacheDir,
		Workers:        *workers,
		RunTimeout:     *runTimeout,
		EnvParallelism: *envPar,
		MaxQueue:       *maxQueue,
		HardDeadline:   *hardDeadline,
		Log:            logger,
	}

	logger.Info("generating dataset", "preset", p.Name, "sf", p.SF)
	srv, err := service.New(cfg)
	if err != nil {
		fatal("starting service", err)
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr, srv, logger)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "preset", p.Name, "addr", *addr, "cache", cacheLabel(*cacheDir))

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal("listener failed", err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "budget", drainTimeout.String())
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Shutdown(drainCtx) }()
	select {
	case err := <-done:
		if err != nil {
			logger.Warn("drain incomplete, aborting in-flight runs", "err", err)
		}
	case sig := <-sigc:
		logger.Warn("aborting in-flight runs", "signal", sig.String())
	}
	srv.Close()
	httpSrv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener error", "err", err)
	}
	logger.Info("stopped")
}

// newLogger builds the process logger writing to stderr in the chosen
// format. JSON is the default: one request per line, machine-parseable.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (json|text)", format)
}

// serveDebug runs the private debug listener: pprof (never on the public
// mux), plus the same metrics the API serves.
func serveDebug(addr string, srv *service.Server, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		srv.Registry().WriteText(w)
	})
	logger.Info("debug listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "err", err)
	}
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return fmt.Sprintf("dir %s", dir)
}
