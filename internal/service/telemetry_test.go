package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dssmem/internal/telemetry"
	"dssmem/internal/workload"
)

// legacyMetricNames pins every family name that existed before the registry:
// renaming any of them breaks dashboards, so this list only ever grows.
var legacyMetricNames = []string{
	"dssmem_cache_hits_total",
	"dssmem_cache_misses_total",
	"dssmem_singleflight_shared_total",
	"dssmem_cache_aborted_total",
	"dssmem_cache_panics_total",
	"dssmem_cache_disk_errors_total",
	"dssmem_cache_corrupt_total",
	"dssmem_cache_quarantined_total",
	"dssmem_cache_disk_skipped_total",
	"dssmem_cache_breaker_state",
	"dssmem_cache_breaker_trips_total",
	"dssmem_cache_orphans_swept_total",
	"dssmem_runs_total",
	"dssmem_runs_inflight",
	"dssmem_run_errors_total",
	"dssmem_run_aborts_total",
	"dssmem_runs_queued",
	"dssmem_runs_shed_total",
	"dssmem_watchdog_kills_total",
	"dssmem_runs_abandoned_live",
	"dssmem_run_seconds",
	"dssmem_requests_total",
	"dssmem_request_errors_total",
	"dssmem_uptime_seconds",
}

func TestMetricsNameCompatAndLint(t *testing.T) {
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Exercise a real request so run/request/phase series materialize.
	resp, _ := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d", resp.StatusCode)
	}

	_, body := get(t, ts, "/metrics")
	rep, err := telemetry.Lint(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("/metrics lint problems: %v", rep.Problems)
	}
	for _, name := range legacyMetricNames {
		if !rep.HasFamily(name) {
			t.Errorf("legacy family %s missing from /metrics", name)
		}
	}
	// dssmem_run_seconds is a histogram now; the old summary's _sum/_count
	// series must still exist under the same names.
	for _, s := range []string{"dssmem_run_seconds_sum", "dssmem_run_seconds_count", "dssmem_run_seconds_bucket"} {
		if !rep.HasSeries(s) {
			t.Errorf("series %s missing", s)
		}
	}
	// New request-scoped families.
	for _, name := range []string{"dssmem_request_seconds", "dssmem_phase_seconds", "dssmem_cache_puts_total"} {
		if !rep.HasFamily(name) {
			t.Errorf("new family %s missing", name)
		}
	}
	out := string(body)
	for _, want := range []string{
		`dssmem_request_seconds_count{endpoint="/v1/measure"} 1`,
		`dssmem_phase_seconds_count{phase="compute"} 1`,
		`dssmem_phase_seconds_count{phase="cache_mem"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// requestLog returns the first "request" line in a JSON request log.
func requestLog(t *testing.T, buf *bytes.Buffer) map[string]any {
	t.Helper()
	dec := json.NewDecoder(buf)
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			break
		}
		if line["msg"] == "request" {
			return line
		}
	}
	t.Fatalf("no structured log line for the request; log:\n%s", buf.String())
	return nil
}

func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServerCfg(t, Config{Log: slog.New(slog.NewJSONHandler(&buf, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")

	line := requestLog(t, &buf)
	for _, key := range []string{"endpoint", "status", "outcome", "duration_ms", "digest", "cache", "phase_compute_ms", "phase_cache_mem_ms", "phase_encode_ms"} {
		if _, ok := line[key]; !ok {
			t.Errorf("log line missing %q: %v", key, line)
		}
	}
	if line["endpoint"] != "/v1/measure" || line["status"] != float64(200) || line["outcome"] != "ok" {
		t.Errorf("log line fields wrong: %v", line)
	}
}

// TestSweepRequestPhases: a sweep's log line and the phase histograms account
// for every cell it simulated, as one request.
func TestSweepRequestPhases(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServerCfg(t, Config{Log: slog.New(slog.NewJSONHandler(&buf, nil))})
	s.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		time.Sleep(20 * time.Millisecond)
		return workload.RunContext(ctx, o)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/v1/sweep?machine=vclass&query=Q6"); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}

	line := requestLog(t, &buf)
	if line["endpoint"] != "/v1/sweep" {
		t.Fatalf("log line is not the sweep's: %v", line)
	}
	// Five cells, each sleeping 20 ms in the runner.
	if ms, _ := line["phase_compute_ms"].(float64); ms < 100 {
		t.Errorf("phase_compute_ms = %v, want >= 100: %v", line["phase_compute_ms"], line)
	}
	for _, key := range []string{"phase_cache_mem_ms", "phase_encode_ms"} {
		if _, ok := line[key]; !ok {
			t.Errorf("log line missing %q: %v", key, line)
		}
	}

	_, metrics := get(t, ts, "/metrics")
	for _, want := range []string{
		`dssmem_request_seconds_count{endpoint="/v1/sweep"} 1` + "\n",
		`dssmem_phase_seconds_count{phase="compute"} 1` + "\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
