package service

// Chaos test: hammer a daemon whose disk and runs are both failing
// probabilistically with a plain HTTP client, and hold every response to the
// only two permissible outcomes:
//
//   1. HTTP 200 with a digest and measurement byte-identical to the
//      fault-free baseline (faults may slow an answer, never change it), or
//   2. 429, 502, 503 or 504 with "retriable":true in the body and a
//      Retry-After header (shed, degraded, watchdog-killed, panicked) —
//      never a silent wrong answer, never a non-retriable error for a valid
//      request.
//
// That is the whole contract a retrying caller needs. The daemon is
// restarted between rounds on the same cache directory so the disk tier —
// where torn writes and bit rot live — is actually on the read path (a warm
// memory tier would mask it), and must recover to health once the faults
// stop. CHAOS_ITERS scales the per-goroutine iteration count for the nightly
// CI job.
//
// Faults enter through the two test seams only: disk faults through the
// store's filesystem (rescache.OpenFS over fault.FS), run faults through
// Server.runHook, inside the same admission, timeout, watchdog and panic
// boundary every real run passes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssmem/internal/fault"
	"dssmem/internal/rescache"
	"dssmem/internal/workload"
)

// The run-fault sites, drawn once per run by faultyRun.
const (
	runPanic fault.Site = "compute.panic" // the run panics
	runHang  fault.Site = "compute.hang"  // the run wedges, ignoring cancellation
	runSlow  fault.Site = "compute.slow"  // the run starts a few milliseconds late
)

// faultyRun is a runner for srv.runHook that draws the run faults from inj
// and otherwise runs the simulation. A hung run ignores its context; only
// srv.Close releases it, so it does not outlive the test.
func faultyRun(srv *Server, inj *fault.Injector) func(context.Context, workload.Options) (*workload.Stats, error) {
	return func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		if inj.Hit(runPanic) {
			panic(fmt.Errorf("%w: run panic", fault.ErrInjected))
		}
		if inj.Hit(runHang) {
			<-srv.base.Done()
			return nil, fmt.Errorf("hung run released by shutdown: %w", errShutdown)
		}
		if inj.Hit(runSlow) {
			time.Sleep(3 * time.Millisecond)
		}
		return workload.RunContext(ctx, o)
	}
}

type measureBody struct {
	Digest      string          `json:"digest"`
	Cache       string          `json:"cache"`
	Measurement json.RawMessage `json:"measurement"`
}

func chaosIters(t *testing.T) int {
	if v := os.Getenv("CHAOS_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CHAOS_ITERS=%q: %v", v, err)
		}
		return n
	}
	if testing.Short() {
		return 10
	}
	return 40
}

func TestChaos(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(20260806)

	paths := make([]string, 0, 12)
	for _, m := range []string{"vclass", "origin"} {
		for _, q := range []string{"Q6", "Q12"} {
			for _, p := range []int{1, 2, 4} {
				paths = append(paths, fmt.Sprintf("/v1/measure?machine=%s&query=%s&procs=%d", m, q, p))
			}
		}
	}

	// newRound opens a fresh daemon over the same cache directory: cold
	// memory tier, warm (and possibly rotten) disk tier.
	newRound := func() (*Server, *httptest.Server) {
		store, err := rescache.OpenFS(dir, fault.FS{Inner: rescache.OSFS{}, Inj: inj})
		if err != nil {
			t.Fatal(err)
		}
		store.SetBreaker(3, 100*time.Millisecond)
		srv := newTestServerCfg(t, Config{
			Workers:      4,
			MaxQueue:     16,
			HardDeadline: 3 * time.Second,
			Store:        store,
		})
		srv.runHook = faultyRun(srv, inj)
		return srv, httptest.NewServer(srv.Handler())
	}

	// Fault-free baseline: the ground truth every later 200 is held to.
	srv, ts := newRound()
	baseline := make(map[string]measureBody, len(paths))
	for _, p := range paths {
		resp, body := get(t, ts, p)
		if resp.StatusCode != 200 {
			t.Fatalf("baseline %s: %d %s", p, resp.StatusCode, body)
		}
		var mb measureBody
		if err := json.Unmarshal(body, &mb); err != nil {
			t.Fatalf("baseline %s: %v", p, err)
		}
		baseline[p] = mb
	}

	arm := func() {
		inj.Set(fault.DiskReadErr, 0.10)
		inj.Set(fault.DiskReadCorrupt, 0.10)
		inj.Set(fault.DiskWriteErr, 0.10)
		inj.Set(fault.DiskWriteTorn, 0.10)
		inj.Set(runPanic, 0.05)
		inj.Set(runHang, 0.005)
		inj.Set(runSlow, 0.25)
	}

	// check holds one response to the contract; it returns "" when the
	// response is acceptable.
	check := func(p string, resp *http.Response, body []byte) string {
		if resp.StatusCode == http.StatusOK {
			var mb measureBody
			if err := json.Unmarshal(body, &mb); err != nil {
				return fmt.Sprintf("200 with undecodable body: %v", err)
			}
			want := baseline[p]
			if mb.Digest != want.Digest {
				return fmt.Sprintf("digest drifted under faults: %s != %s", mb.Digest, want.Digest)
			}
			if string(mb.Measurement) != string(want.Measurement) {
				return fmt.Sprintf("200 body differs from fault-free baseline under faults:\n got %s\nwant %s",
					mb.Measurement, want.Measurement)
			}
			return ""
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			return fmt.Sprintf("status %d for a valid request: %s", resp.StatusCode, body)
		}
		var eb errBody
		if err := json.Unmarshal(body, &eb); err != nil || !eb.Retriable {
			return fmt.Sprintf("%d without \"retriable\":true: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			return fmt.Sprintf("%d without Retry-After: %s", resp.StatusCode, body)
		}
		return ""
	}

	iters := chaosIters(t)
	const goroutines = 8
	var okCount, errCount atomic.Int64

	for round := 0; round < 3; round++ {
		if round > 0 {
			// Restart on the rotten disk: startup sweep + disk-tier reads.
			inj.DisableAll()
			ts.Close()
			srv.Close()
			srv, ts = newRound()
		}
		// One forced compute panic per round, so the non-200 half of the
		// contract is checked on every run and not only when a random fault
		// happens to hit one of the few simulations the chaos load starts.
		inj.Set(runPanic, 1)
		const forced = "/v1/measure?machine=origin&query=Q6&procs=8"
		if resp, body := get(t, ts, forced); resp.StatusCode == http.StatusOK {
			t.Fatalf("round %d: forced panic answered 200", round)
		} else if msg := check(forced, resp, body); msg != "" {
			t.Fatalf("round %d: forced panic: %s", round, msg)
		}
		errCount.Add(1)
		arm()

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*goroutines + g)))
				for i := 0; i < iters; i++ {
					p := paths[rng.Intn(len(paths))]
					resp, err := ts.Client().Get(ts.URL + p)
					if err != nil {
						t.Errorf("%s: %v", p, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("%s: reading body: %v", p, err)
						return
					}
					if msg := check(p, resp, body); msg != "" {
						t.Errorf("%s: %s", p, msg)
						return
					}
					if resp.StatusCode == http.StatusOK {
						okCount.Add(1)
					} else {
						errCount.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("round %d: contract broken under fault injection (quarantine dir: %s)", round, srv.Store().QuarantineDir())
		}
	}

	// Faults stop; the daemon must recover to full health. Fresh-digest
	// requests force Put probes through the half-open breaker (warm cache
	// hits never touch the disk, so they cannot heal it).
	inj.DisableAll()
	deadline := time.Now().Add(15 * time.Second)
	probe := 5
	for {
		_, body := get(t, ts, "/healthz")
		var h struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz: %s: %v", body, err)
		}
		if h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon stuck in %q after faults stopped", h.Status)
		}
		get(t, ts, fmt.Sprintf("/v1/measure?machine=vclass&query=Q6&procs=%d", probe))
		probe++
		time.Sleep(50 * time.Millisecond)
	}

	// Full verification sweep: every path still serves the baseline answer.
	for _, p := range paths {
		resp, body := get(t, ts, p)
		if resp.StatusCode != 200 {
			t.Fatalf("post-chaos %s: %d %s", p, resp.StatusCode, body)
		}
		var mb measureBody
		if err := json.Unmarshal(body, &mb); err != nil {
			t.Fatal(err)
		}
		if string(mb.Measurement) != string(baseline[p].Measurement) {
			t.Fatalf("post-chaos %s: measurement differs from baseline", p)
		}
	}

	st := srv.Store().Stats()
	t.Logf("chaos: %d ok, %d retriable errors; faults fired: %v; store: %+v", okCount.Load(), errCount.Load(), inj.Fired(), st)
	if okCount.Load() == 0 {
		t.Fatal("chaos produced no successful requests — faults too aggressive to mean anything")
	}
}
