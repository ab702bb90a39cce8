package service

import (
	"net/http"
	"time"

	"dssmem/internal/telemetry"
)

// initMetrics builds the server's metric families on one registry — the
// single snapshot source for /metrics. Rescache counters are polled from the
// store at scrape time (the store's atomics stay authoritative; no double
// accounting); service counters live directly in the registry. Every family
// name predates the registry and must stay stable — the name-compat test
// pins the list.
func (s *Server) initMetrics() {
	r := telemetry.NewRegistry()
	s.reg = r

	r.PollCounter("dssmem_cache_hits_total", "Results served without simulation, by tier.",
		[]string{"tier"}, func(emit func(float64, ...string)) {
			cs := s.store.Stats()
			emit(float64(cs.MemHits), "mem")
			emit(float64(cs.DiskHits), "disk")
		})
	pollStore := func(name, help string, field func() uint64) {
		r.PollCounter(name, help, nil, func(emit func(float64, ...string)) {
			emit(float64(field()))
		})
	}
	pollStore("dssmem_cache_misses_total", "Requests that required a compute.",
		func() uint64 { return s.store.Stats().Misses })
	pollStore("dssmem_singleflight_shared_total", "Requests that joined an identical in-flight compute.",
		func() uint64 { return s.store.Stats().Shared })
	pollStore("dssmem_cache_puts_total", "Results stored into the cache.",
		func() uint64 { return s.store.Stats().Puts })
	pollStore("dssmem_cache_aborted_total", "Computes cancelled because every waiter left.",
		func() uint64 { return s.store.Stats().Aborted })
	pollStore("dssmem_cache_panics_total", "Computes that panicked (isolated).",
		func() uint64 { return s.store.Stats().Panics })
	pollStore("dssmem_cache_disk_errors_total", "Disk tier I/O failures (feed the circuit breaker).",
		func() uint64 { return s.store.Stats().DiskErrors })
	pollStore("dssmem_cache_corrupt_total", "Disk entries that failed checksum verification.",
		func() uint64 { return s.store.Stats().Corrupt })
	pollStore("dssmem_cache_quarantined_total", "Corrupt entries moved to quarantine.",
		func() uint64 { return s.store.Stats().Quarantined })
	pollStore("dssmem_cache_disk_skipped_total", "Disk operations bypassed in degraded (memory-only) mode.",
		func() uint64 { return s.store.Stats().DiskSkipped })
	r.PollGauge("dssmem_cache_breaker_state", "Disk circuit breaker: 0 closed, 1 half-open, 2 open.",
		nil, func(emit func(float64, ...string)) {
			emit(float64(breakerGauge(s.store.Stats().Breaker)))
		})
	pollStore("dssmem_cache_breaker_trips_total", "Breaker transitions into the open state.",
		func() uint64 { return s.store.Stats().BreakerTrips })
	pollStore("dssmem_cache_orphans_swept_total", "Crash-orphaned temp files removed at startup.",
		func() uint64 { return s.store.Stats().OrphansSwept })

	s.runs = r.Counter("dssmem_runs_total", "Simulations started by the worker pool.")
	s.inflight = r.Gauge("dssmem_runs_inflight", "Simulations currently executing.")
	s.runErrs = r.Counter("dssmem_run_errors_total", "Simulations that returned an error (including aborts).")
	s.aborted = r.Counter("dssmem_run_aborts_total", "Simulations aborted by cancellation or timeout.")
	s.queued = r.Gauge("dssmem_runs_queued", "Runs waiting for a worker slot.")
	s.shed = r.Counter("dssmem_runs_shed_total", "Runs rejected by admission control (429).")
	s.wdKills = r.Counter("dssmem_watchdog_kills_total", "Runs abandoned by the hard-deadline watchdog.")
	s.hung = r.Gauge("dssmem_runs_abandoned_live", "Abandoned runs that have not exited yet.")
	s.runSeconds = r.Histogram("dssmem_run_seconds", "Wall-clock simulation time.")

	s.reqTotal = r.Counter("dssmem_requests_total", "API requests handled.")
	s.reqErrors = r.Counter("dssmem_request_errors_total", "API requests that failed.")
	s.reqSeconds = r.HistogramVec("dssmem_request_seconds", "End-to-end API request latency.", "endpoint")
	s.phaseSeconds = r.HistogramVec("dssmem_phase_seconds",
		"Request time by phase: queue, cache_mem, cache_disk, compute, encode.", "phase")
	r.PollGauge("dssmem_uptime_seconds", "Seconds since the daemon started.",
		nil, func(emit func(float64, ...string)) {
			emit(time.Since(s.start).Seconds())
		})
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. The repository still takes no dependency on a metrics library —
// the registry is internal/telemetry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

func breakerGauge(state string) int {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return 0
}
