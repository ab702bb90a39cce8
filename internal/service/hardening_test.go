package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dssmem/internal/experiments"
	"dssmem/internal/fault"
	"dssmem/internal/machine"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// errBody decodes the structured error body every non-200 response carries.
type errBody struct {
	Error     string `json:"error"`
	Retriable bool   `json:"retriable"`
	Status    int    `json:"status"`
}

func newTestServerCfg(t *testing.T, cfg Config) *Server {
	t.Helper()
	tinyDataOnce.Do(func() { tinyData = tpch.Generate(experiments.Tiny.SF, experiments.Tiny.Seed) })
	cfg.Preset = experiments.Tiny
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.data = tinyData
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAdmissionControlSheds: with one worker and a one-deep queue, a third
// concurrent distinct request is shed with 429, Retry-After, and a
// structured retriable body — and the server keeps serving afterwards.
func TestAdmissionControlSheds(t *testing.T) {
	srv := newTestServerCfg(t, Config{Workers: 1, MaxQueue: 1})
	gate := make(chan struct{})
	running := make(chan int, 8)
	srv.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		running <- o.Processes
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return workload.RunContext(ctx, o)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct procs => distinct digests => no singleflight merging.
	path := func(procs int) string {
		return fmt.Sprintf("/v1/measure?machine=vclass&query=Q6&procs=%d", procs)
	}
	type res struct {
		code int
		body []byte
		hdr  http.Header
	}
	resc := make(chan res, 3)
	do := func(procs int) {
		resp, body := get(t, ts, path(procs))
		resc <- res{resp.StatusCode, body, resp.Header}
	}

	go do(1)
	<-running // request 1 holds the worker slot
	go do(2)
	for srv.queued.Load() < 1 { // request 2 is parked in the wait queue
		time.Sleep(time.Millisecond)
	}
	resp, body := get(t, ts, path(3)) // no room left: shed
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q not a positive integer", ra)
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || !eb.Retriable || eb.Status != 429 {
		t.Fatalf("429 body %s (err %v), want retriable structured error", body, err)
	}
	if srv.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", srv.shed.Load())
	}

	close(gate) // release; the two admitted requests must complete
	for i := 0; i < 2; i++ {
		r := <-resc
		if r.code != http.StatusOK {
			t.Fatalf("admitted request finished %d: %s", r.code, r.body)
		}
	}
}

// TestWatchdogAbandonsWedgedRun: a run that ignores cancellation entirely is
// abandoned at the hard deadline with a retriable 504, its worker slot is
// reclaimed, and the server keeps serving.
func TestWatchdogAbandonsWedgedRun(t *testing.T) {
	// The deadline must be long enough that the genuine run of the second
	// request (procs=2, ~tens of ms, slower under -race) never trips it.
	srv := newTestServerCfg(t, Config{Workers: 1, HardDeadline: 2 * time.Second})
	wedged := make(chan struct{})
	srv.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		if o.Processes == 1 {
			<-wedged // ignores ctx: a truly hung simulation
			return nil, fmt.Errorf("released")
		}
		return workload.RunContext(ctx, o)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(wedged)

	resp, body := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("wedged run: %d %s, want 504", resp.StatusCode, body)
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || !eb.Retriable {
		t.Fatalf("504 body %s, want retriable", body)
	}
	if srv.wdKills.Load() != 1 {
		t.Fatalf("watchdog kills = %d, want 1", srv.wdKills.Load())
	}
	if srv.hung.Load() != 1 {
		t.Fatalf("hung gauge = %d, want 1 while the zombie lives", srv.hung.Load())
	}

	// The slot was reclaimed: the next (distinct) request completes even
	// though the zombie still blocks.
	resp, body = get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-watchdog request: %d %s", resp.StatusCode, body)
	}
}

// TestInjectedPanicIsRetriable503: a compute panic is isolated, surfaces as
// a retriable 503, and the digest stays retriable — the next attempt
// succeeds.
func TestInjectedPanicIsRetriable503(t *testing.T) {
	inj := fault.New(1)
	inj.Set(runPanic, 1)
	srv := newTestServerCfg(t, Config{Workers: 2})
	srv.runHook = faultyRun(srv, inj)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicked run: %d %s, want 503", resp.StatusCode, body)
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || !eb.Retriable {
		t.Fatalf("503 body %s, want retriable", body)
	}
	inj.DisableAll()
	resp, body = get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic: %d %s", resp.StatusCode, body)
	}
}

// TestHealthzDegradedAndRecovery: disk faults trip the store's breaker;
// healthz flips to "degraded"; once the disk heals and a probe succeeds it
// returns to "ok".
func TestHealthzDegradedAndRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(3)
	store, err := rescache.OpenFS(dir, fault.FS{Inner: rescache.OSFS{}, Inj: inj})
	if err != nil {
		t.Fatal(err)
	}
	store.SetBreaker(1, 10*time.Millisecond)
	srv := newTestServerCfg(t, Config{Workers: 2, Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := func() string {
		_, body := get(t, ts, "/healthz")
		var h struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz body %s: %v", body, err)
		}
		return h.Status
	}
	if got := health(); got != "ok" {
		t.Fatalf("initial health %q", got)
	}

	inj.Set(fault.DiskWriteErr, 1)
	resp, body := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure during disk faults: %d %s (results must not depend on disk)", resp.StatusCode, body)
	}
	if got := health(); got != "degraded" {
		t.Fatalf("health after breaker trip = %q, want degraded", got)
	}

	// Disk heals; after the cooldown a fresh (uncached) request's Put is
	// the half-open probe that closes the breaker.
	inj.DisableAll()
	deadline := time.Now().Add(5 * time.Second)
	for health() != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("health never recovered to ok after faults stopped")
		}
		time.Sleep(20 * time.Millisecond)
		get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=2")
	}
}

// TestBadRequestBodyShape: 400s carry the structured body with
// retriable=false (a malformed request never succeeds on retry).
func TestBadRequestBodyShape(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, "").Handler())
	defer ts.Close()
	resp, body := get(t, ts, "/v1/measure?machine=cray")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("400 body %s not structured: %v", body, err)
	}
	if eb.Retriable || eb.Status != 400 || eb.Error == "" {
		t.Fatalf("400 body: %+v", eb)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("non-retriable response carries Retry-After")
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("content type %q", resp.Header.Get("Content-Type"))
	}
}

// TestCorruptStoredMeasurementNeverServed: stored bytes that are not JSON
// (a memory-tier entry no frame checksum covers) are never served as a
// measurement, neither by /v1/measure nor by the figure and sweep path.
func TestCorruptStoredMeasurementNeverServed(t *testing.T) {
	srv := newTestServer(t, "")
	spec := machine.VClassSpec(16, experiments.Tiny.MemScale)
	dig := MeasureDigest(experiments.Tiny, tpch.Q6, 1, workload.Options{Spec: spec})
	if err := srv.Store().Put(rescache.NSMeasurement, dig, []byte(`{"Machine":`)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusInternalServerError || eb.Retriable {
		t.Fatalf("corrupt entry: %d %s, want a non-retriable 500", resp.StatusCode, body)
	}
	if !strings.Contains(eb.Error, "corrupt cached measurement") {
		t.Errorf("error %q does not say the cached measurement is corrupt", eb.Error)
	}
	if m, err := srv.env(context.Background()).MeasureOpts(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec}); err == nil {
		t.Errorf("MeasureOpts decoded a corrupt entry into %+v", m)
	}
	if runs := srv.runs.Load(); runs != 0 {
		t.Errorf("%d simulations ran, want 0", runs)
	}
}
