package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dssmem/internal/experiments"
	"dssmem/internal/telemetry"
	"dssmem/internal/tpch"
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
	for _, name := range []string{"dssmem_request_seconds", "dssmem_phase_seconds", "dssmem_request_retries_total", "dssmem_cache_puts_total"} {
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

func TestRequestIDPropagation(t *testing.T) {
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Server mints an ID when none is supplied.
	resp, _ := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	minted := resp.Header.Get("X-Request-ID")
	if len(minted) != 16 {
		t.Fatalf("minted X-Request-ID = %q, want 16 hex chars", minted)
	}

	// A well-formed inbound ID is honored and echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/measure?machine=vclass&query=Q6&procs=1", nil)
	req.Header.Set("X-Request-ID", "caller-id-42")
	req.Header.Set("X-Request-Attempt", "3")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "caller-id-42" {
		t.Fatalf("echoed ID = %q, want caller-id-42", got)
	}
	if srv.retries.Load() != 1 {
		t.Fatalf("retries counter = %d, want 1 (attempt 3 arrived)", srv.retries.Load())
	}

	// A malformed inbound ID (label-breaking characters) is replaced.
	req3, _ := http.NewRequest("GET", ts.URL+"/v1/measure?machine=vclass&query=Q6&procs=1", nil)
	req3.Header.Set("X-Request-ID", `evil"id{}`)
	resp3, err := ts.Client().Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got == `evil"id{}` || len(got) != 16 {
		t.Fatalf("malformed inbound ID must be replaced with a minted one, got %q", got)
	}
}

func TestDebugRequests(t *testing.T) {
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/measure?machine=vclass&query=Q6&procs=1", nil)
	req.Header.Set("X-Request-ID", "debug-test-req")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, body := get(t, ts, "/debug/requests")
	var doc struct {
		Inflight []telemetry.RequestView `json:"inflight"`
		Recent   []telemetry.RequestView `json:"recent"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad /debug/requests JSON: %v\n%s", err, body)
	}
	var found *telemetry.RequestView
	for i := range doc.Recent {
		if doc.Recent[i].ID == "debug-test-req" {
			found = &doc.Recent[i]
		}
	}
	if found == nil {
		t.Fatalf("request debug-test-req not in recent: %s", body)
	}
	if found.Endpoint != "/v1/measure" || !found.Done || found.Status != 200 ||
		found.Outcome != "ok" || found.Cache == "" || found.Digest == "" {
		t.Fatalf("recent view incomplete: %+v", found)
	}
	phases := map[string]bool{}
	for _, ph := range found.Phases {
		phases[ph.Name] = true
	}
	if !phases[telemetry.PhaseCompute] || !phases[telemetry.PhaseCacheMem] || !phases[telemetry.PhaseEncode] {
		t.Fatalf("phase breakdown incomplete: %+v", found.Phases)
	}
}

func TestStructuredRequestLog(t *testing.T) {
	tinyDataOnce.Do(func() { tinyData = tpch.Generate(experiments.Tiny.SF, experiments.Tiny.Seed) })
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, err := New(Config{Preset: experiments.Tiny, Log: logger})
	if err != nil {
		t.Fatal(err)
	}
	s.data = tinyData
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/measure?machine=vclass&query=Q6&procs=1", nil)
	req.Header.Set("X-Request-ID", "log-test-req")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var line map[string]any
	dec := json.NewDecoder(&buf)
	found := false
	for dec.More() {
		if err := dec.Decode(&line); err != nil {
			break
		}
		if line["req"] == "log-test-req" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no structured log line for the request; log:\n%s", buf.String())
	}
	for _, key := range []string{"endpoint", "status", "outcome", "duration_ms", "digest", "cache", "phase_compute_ms", "phase_cache_mem_ms", "phase_encode_ms"} {
		if _, ok := line[key]; !ok {
			t.Errorf("log line missing %q: %v", key, line)
		}
	}
	if line["endpoint"] != "/v1/measure" || line["status"] != float64(200) || line["outcome"] != "ok" {
		t.Errorf("log line fields wrong: %v", line)
	}
}
