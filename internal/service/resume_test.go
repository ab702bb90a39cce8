package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dssmem/internal/experiments"
	"dssmem/internal/workload"
)

const resumeSweepPath = "/v1/sweep?machine=vclass&query=Q6"

// wedgeSweep starts a daemon on dir that simulates the sweep's points one at
// a time and wedges on the third, issues the sweep, and returns once the
// first two points have finished, with their process counts. The returned
// stop closes the daemon and checks that the interrupted sweep did not
// succeed.
func wedgeSweep(t *testing.T, dir string) (stop func(), finished []int) {
	t.Helper()
	a := newTestServerCfg(t, Config{CacheDir: dir, EnvParallelism: 1})
	third := make(chan struct{})
	var calls atomic.Int32
	var mu sync.Mutex
	var ran []int
	a.runHook = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		if calls.Add(1) == 3 {
			close(third)
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}
		mu.Lock()
		ran = append(ran, o.Processes)
		mu.Unlock()
		return workload.RunContext(ctx, o)
	}
	tsA := httptest.NewServer(a.Handler())
	done := make(chan int, 1)
	go func() {
		resp, err := tsA.Client().Get(tsA.URL + resumeSweepPath)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-third
	mu.Lock()
	finished = slices.Clone(ran)
	mu.Unlock()
	return func() {
		t.Helper()
		a.Close()
		if code := <-done; code == 200 {
			t.Fatal("sweep on the closed server succeeded")
		}
		tsA.Close()
	}, finished
}

// runsTotal asserts the daemon's dssmem_runs_total on /metrics.
func runsTotal(t *testing.T, srv *Server, ts *httptest.Server, want int) {
	t.Helper()
	_, metrics := get(t, ts, "/metrics")
	if line := fmt.Sprintf("dssmem_runs_total %d\n", want); !strings.Contains(string(metrics), line) {
		t.Fatalf("want %q in /metrics, got runs %d", line, srv.runs.Load())
	}
}

// referenceSweep returns the body of an uninterrupted sweep on a fresh,
// memory-only daemon.
func referenceSweep(t *testing.T) []byte {
	t.Helper()
	ref := httptest.NewServer(newTestServer(t, "").Handler())
	defer ref.Close()
	_, body := get(t, ref, resumeSweepPath)
	return body
}

// TestSweepResumesFromCache: a daemon closed mid-sweep leaves its finished
// points in the disk cache, so a new daemon on the same directory answers the
// re-issued sweep by simulating only the points that never finished, and
// returns the same bytes as an uninterrupted sweep.
func TestSweepResumesFromCache(t *testing.T) {
	dir := t.TempDir()
	stop, _ := wedgeSweep(t, dir)
	stop()

	// Server B restarts on the same cache directory.
	b := newTestServerCfg(t, Config{CacheDir: dir, EnvParallelism: 1})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	resp, body := get(t, tsB, resumeSweepPath)
	if resp.StatusCode != 200 {
		t.Fatalf("re-issued sweep: %d %s", resp.StatusCode, body)
	}
	// Only the unfinished points simulate.
	runsTotal(t, b, tsB, len(experiments.ProcCounts)-2)

	if refBody := referenceSweep(t); !bytes.Equal(body, refBody) {
		t.Fatalf("resumed sweep differs from an uninterrupted one:\n got %s\nwant %s", body, refBody)
	}
}

// TestSweepPointsPersistIncrementally pins the property resume rests on: a
// sweep stores each point on disk as that point finishes, not when the sweep
// completes, under the same digest /v1/measure uses. While the sweep is still
// wedged on its third point, a second daemon on the same directory already
// answers the two points that finished from disk.
func TestSweepPointsPersistIncrementally(t *testing.T) {
	dir := t.TempDir()
	stop, finished := wedgeSweep(t, dir)
	defer stop()
	if len(finished) != 2 {
		t.Fatalf("finished points %v, want 2", finished)
	}

	c := newTestServerCfg(t, Config{CacheDir: dir})
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	for _, procs := range finished {
		path := fmt.Sprintf("/v1/measure?machine=vclass&query=Q6&procs=%d", procs)
		resp, body := get(t, tsC, path)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("%s: X-Cache = %q, want a hit on the point the sweep finished", path, got)
		}
	}
	runsTotal(t, c, tsC, 0)
}
