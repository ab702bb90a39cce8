package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/experiments"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// newTestServer builds a tiny-preset server. The generated dataset is cached
// per test binary via sync.Once (generation is deterministic, so sharing is
// sound).
var (
	tinyDataOnce sync.Once
	tinyData     *tpch.Data
)

func newTestServer(t *testing.T, cacheDir string) *Server {
	t.Helper()
	tinyDataOnce.Do(func() { tinyData = tpch.Generate(experiments.Tiny.SF, experiments.Tiny.Seed) })
	s, err := New(Config{Preset: experiments.Tiny, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	s.data = tinyData
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, "").Handler())
	defer ts.Close()
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"dssmem_cache_hits_total{tier=\"mem\"}",
		"dssmem_cache_misses_total",
		"dssmem_runs_inflight",
		"dssmem_run_aborts_total",
		"dssmem_run_seconds_sum",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMeasureEndpointAndCacheHit(t *testing.T) {
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const path = "/v1/measure?machine=vclass&query=Q6&procs=2"
	resp, body := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	var out struct {
		Digest      string           `json:"digest"`
		Cache       string           `json:"cache"`
		Measurement core.Measurement `json:"measurement"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad body %s: %v", body, err)
	}
	if len(out.Digest) != 64 || out.Cache != "miss" {
		t.Fatalf("body header: %+v", out)
	}
	if out.Measurement.Processes != 2 || out.Measurement.Query != "Q6" || out.Measurement.CPI <= 0 {
		t.Fatalf("measurement: %+v", out.Measurement)
	}

	resp, body2 := get(t, ts, path)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q", got)
	}
	// Byte-identical measurement on the warm path.
	var out2 struct {
		Measurement json.RawMessage `json:"measurement"`
	}
	var out1 struct {
		Measurement json.RawMessage `json:"measurement"`
	}
	json.Unmarshal(body, &out1)
	json.Unmarshal(body2, &out2)
	if string(out1.Measurement) != string(out2.Measurement) {
		t.Fatalf("warm measurement differs:\ncold %s\nwarm %s", out1.Measurement, out2.Measurement)
	}
	if runs := srv.runs.Load(); runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct{ path, names string }{
		{"/v1/measure?machine=cray", ""},
		{"/v1/measure?query=Q99", ""},
		{"/v1/measure?procs=zero", ""},
		{"/v1/figure/notanumber", ""},
		// Out-of-range machine geometry is the caller's mistake, never a
		// retriable run failure: a retry cannot make it succeed.
		{"/v1/measure?machine=vclass&cpus=100&procs=1", ""},
		{"/v1/measure?machine=vclass&cpus=4&procs=5", ""},
		{"/v1/sweep?machine=origin&cpus=2", ""},
		// A malformed flag is an error, never the warm default.
		{"/v1/measure?cold=bogus", ""},
		{"/v1/measure?cold=t", ""},
		// Trials count from 0; a negative one is no run of the sweep.
		{"/v1/measure?trial=-1", ""},
		// A misspelled, unknown or repeated parameter is an error naming
		// it, never a run of the defaults or of its first value.
		{"/v1/measure?machine=vclass&query=Q6&proc=4", `"proc"`},
		{"/v1/measure?machine=vclass&query=Q6&Trial=3", `"Trial"`},
		{"/v1/measure?machine=vclass&query=Q6&procs=1&procs=4", `"procs"`},
		{"/v1/sweep?machine=origin&query=Q21&procs=8", `"procs"`},
		{"/v1/figure/2?x=1", `"x"`},
		{"/v1/measure?machine=vclass&query=Q6&procs=4%zz", `"%zz"`},
		// A parameter given with no value is an error, never its default.
		{"/v1/measure?machine=vclass&query=Q6&procs=", `"procs"`},
		{"/v1/measure?machine=vclass&query=Q6&trial=", `"trial"`},
		{"/v1/measure?machine=vclass&query=Q6&cpus=", `"cpus"`},
		{"/v1/measure?machine=vclass&query=Q6&cold=", `"cold"`},
		{"/v1/measure?machine=&query=Q6", `"machine"`},
		{"/v1/measure?machine=vclass&query=", `"query"`},
		{"/v1/sweep?machine=&query=Q6", `"machine"`},
		// No endpoint offers a sampled run; asking for one is no exact run.
		{"/v1/measure?machine=origin&query=Q6&procs=8&sample_quanta=8", `"sample_quanta"`},
		{"/v1/figure/2?sample_quanta=8", `"sample_quanta"`},
	} {
		resp, body := get(t, ts, c.path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", c.path, resp.StatusCode)
		}
		var eb errBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Retriable {
			t.Errorf("%s: body %s, want a non-retriable error", c.path, body)
		}
		if !strings.Contains(eb.Error, c.names) {
			t.Errorf("%s: error %q does not name %s", c.path, eb.Error, c.names)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q on a bad request", c.path, ra)
		}
	}
	resp, _ := get(t, ts, "/v1/figure/42")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("figure 42: %d, want 404", resp.StatusCode)
	}
	// A rejected request never reaches the result store.
	if st := srv.Store().Stats(); st.Misses != 0 {
		t.Errorf("bad requests counted %d cache misses, want 0", st.Misses)
	}
}

// TestDaemonSmoke is the in-process version of CI's daemon smoke test: serve
// the tiny preset, request Figure 2 twice, assert the second response is a
// cache hit; then restart onto the same cache directory and assert the hit
// survives with zero simulations run.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 runs 12 simulations")
	}
	dir := t.TempDir()
	srv := newTestServer(t, dir)
	ts := httptest.NewServer(srv.Handler())

	resp, body := get(t, ts, "/v1/figure/2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure 2: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first figure request X-Cache = %q", got)
	}
	var fig experiments.Result
	if err := json.Unmarshal(body, &fig); err != nil {
		t.Fatalf("figure body: %v", err)
	}
	if fig.ID != "fig2" || len(fig.Rows) == 0 {
		t.Fatalf("figure result: %+v", fig)
	}

	resp, body2 := get(t, ts, "/v1/figure/2")
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second figure request X-Cache = %q", got)
	}
	if string(body) != string(body2) {
		t.Fatal("cache hit served different bytes")
	}
	ts.Close()
	srv.Close()

	// "Restart" the daemon on the same cache directory.
	srv2 := newTestServer(t, dir)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, body3 := get(t, ts2, "/v1/figure/2")
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("post-restart X-Cache = %q", got)
	}
	if string(body3) != string(body) {
		t.Fatal("post-restart bytes differ")
	}
	if runs := srv2.runs.Load(); runs != 0 {
		t.Fatalf("restarted daemon ran %d simulations for a persisted figure", runs)
	}
}

// TestFigureRenderedFromStoredCells: a figure is rendered from its
// measurement cells on every request. Once /v1/measure has stored all twelve
// of Figure 2's cells, the figure is a hit that simulates nothing, and bytes
// stored under the figure's own digest (say, a whole body cached by an older
// build) are never served.
func TestFigureRenderedFromStoredCells(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 2 runs 12 simulations")
	}
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, m := range []string{"vclass", "origin"} {
		for _, q := range tpch.AllQueries {
			for _, procs := range []int{1, 8} {
				path := fmt.Sprintf("/v1/measure?machine=%s&query=%v&procs=%d", m, q, procs)
				if resp, body := get(t, ts, path); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
				}
			}
		}
	}
	runsTotal(t, srv, ts, 12)

	resp, body := get(t, ts, "/v1/figure/2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure 2: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("figure over stored cells: X-Cache = %q, want hit", got)
	}
	runsTotal(t, srv, ts, 12)

	dig, err := figureDigest(experiments.Tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Put("figure", dig, []byte(`{"id":"stale"}`)); err != nil {
		t.Fatal(err)
	}
	if _, again := get(t, ts, "/v1/figure/2"); string(again) != string(body) {
		t.Errorf("figure served the bytes stored under its digest: %s", again)
	}
}

// TestConcurrentIdenticalRequestsDeduplicate: N identical in-flight requests
// cost one simulation.
func TestConcurrentIdenticalRequestsDeduplicate(t *testing.T) {
	srv := newTestServer(t, "")
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	srv.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		once.Do(entered.Done)
		<-gate
		return workload.RunContext(ctx, o)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	caches := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := get(t, ts, "/v1/measure?machine=origin&query=Q6&procs=1")
			codes[i] = resp.StatusCode
			caches[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	entered.Wait() // the one compute is running
	// Give the remaining requests time to join the flight, then release.
	for srv.store.Stats().Shared < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: %d", i, c)
		}
	}
	if runs := srv.runs.Load(); runs != 1 {
		t.Fatalf("%d simulations for %d identical concurrent requests", runs, n)
	}
	st := srv.store.Stats()
	if st.Misses != 1 || st.Shared != n-1 {
		t.Fatalf("store stats: %+v", st)
	}
}

// TestClientDisconnectAbortsRun: when the only client goes away, the
// simulation is cancelled rather than left running.
func TestClientDisconnectAbortsRun(t *testing.T) {
	srv := newTestServer(t, "")
	started := make(chan struct{})
	stopped := make(chan struct{})
	srv.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		close(started)
		<-ctx.Done() // a real run polls this at every scheduling quantum
		close(stopped)
		return nil, fmt.Errorf("workload: run aborted: %w", context.Cause(ctx))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/measure?machine=vclass&query=Q21&procs=4", nil)
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	<-started
	cancel() // client disconnects
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite disconnect")
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("simulation kept running after its only client disconnected")
	}
}

// TestCloseReleasesBlockedRequests: shutdown hard-aborts in-flight work with
// a service-unavailable response.
func TestCloseReleasesBlockedRequests(t *testing.T) {
	srv := newTestServer(t, "")
	started := make(chan struct{})
	srv.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		close(started)
		<-ctx.Done()
		return nil, fmt.Errorf("workload: run aborted: %w", context.Cause(ctx))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		code int
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/measure?machine=vclass&query=Q6&procs=1")
		r := result{err: err}
		if err == nil {
			r.code = resp.StatusCode
			resp.Body.Close()
		}
		resc <- r
	}()
	<-started
	srv.Close()
	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("transport error: %v", r.err)
		}
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request still blocked after Close")
	}
}

// TestRunTimeout: a per-run ceiling aborts runaway simulations.
func TestRunTimeout(t *testing.T) {
	tinyDataOnce.Do(func() { tinyData = tpch.Generate(experiments.Tiny.SF, experiments.Tiny.Seed) })
	srv, err := New(Config{Preset: experiments.Tiny, CacheDir: "", RunTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.data = tinyData
	defer srv.Close()
	srv.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("workload: run aborted: %w", context.Cause(ctx))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := get(t, ts, "/v1/measure?machine=vclass&query=Q6&procs=1")
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want timeout-ish", resp.StatusCode)
	}
	if a := srv.aborted.Load(); a == 0 {
		t.Fatal("timeout not counted as an abort")
	}
}

func TestMeasureMatchesDirectRun(t *testing.T) {
	srv := newTestServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := get(t, ts, "/v1/measure?machine=origin&query=Q12&procs=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Measurement json.RawMessage `json:"measurement"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}

	env := experiments.NewEnvWith(experiments.Tiny, tinyData)
	spec := env.Origin()
	o := env.CanonicalOptions(tpch.Q12, 1, workload.Options{Spec: spec})
	o.Data = tinyData
	st, err := workload.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := json.Marshal(core.FromStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Measurement) != string(direct) {
		t.Fatalf("served measurement differs from direct workload.Run:\nserved %s\ndirect %s", out.Measurement, direct)
	}
}
