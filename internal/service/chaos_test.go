package service

// Chaos test: hammer a daemon whose disk, compute, and simulation layers are
// all failing probabilistically, through the retrying client over a
// connection that drops requests and cuts replies, and assert the
// only two permissible outcomes:
//
//   1. HTTP 200 with a measurement byte-identical to the fault-free baseline
//      (faults may slow an answer or force a retry, never change it), or
//   2. an error the server marked retriable (shed, degraded, watchdog-killed,
//      panicked) — never a silent wrong answer, never a non-retriable error
//      for a valid request.
//
// The daemon is restarted between rounds on the same cache directory so the
// disk tier — where torn writes and bit rot live — is actually on the read
// path (a warm memory tier would mask it), and must recover to health once
// the faults stop. CHAOS_ITERS scales the per-goroutine iteration count for
// the nightly CI job.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"dssmem/internal/client"
	"dssmem/internal/fault"
	"dssmem/internal/rescache"
)

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
			Faults:       inj,
		})
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
		inj.Set(fault.ComputePanic, 0.05)
		inj.Set(fault.ComputeHang, 0.005)
		// SimStall fires per quantum boundary (hundreds per run): keep the
		// per-boundary probability and stall small or runs take seconds.
		inj.Set(fault.SimStall, 0.02)
		inj.SetStall(2 * time.Millisecond)
		// Client side: refused connections and replies cut mid-body.
		inj.Set(fault.NetDialErr, 0.05)
		inj.Set(fault.NetRespTruncated, 0.05)
	}

	iters := chaosIters(t)
	const goroutines = 8
	var okCount, errCount int64
	var cmu sync.Mutex

	for round := 0; round < 3; round++ {
		if round > 0 {
			// Restart on the rotten disk: startup sweep + disk-tier reads.
			inj.DisableAll()
			ts.Close()
			srv.Close()
			srv, ts = newRound()
		}
		arm()

		cl, err := client.New(client.Config{
			BaseURL:     ts.URL,
			HTTP:        &http.Client{Transport: fault.Transport{Inner: ts.Client().Transport, Inj: inj}},
			MaxAttempts: 8,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Seed:        int64(round + 1),
		})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*goroutines + g)))
				for i := 0; i < iters; i++ {
					p := paths[rng.Intn(len(paths))]
					resp, err := cl.Get(context.Background(), p)
					if err != nil {
						var ae *client.APIError
						if errors.As(err, &ae) && !ae.Retriable {
							t.Errorf("%s: non-retriable server error for a valid request: %v", p, err)
							return
						}
						// Retries exhausted or transport failure under
						// injected faults: acceptable, but never wrong data.
						cmu.Lock()
						errCount++
						cmu.Unlock()
						continue
					}
					var mb measureBody
					if err := json.Unmarshal(resp.Body, &mb); err != nil {
						t.Errorf("%s: 200 with undecodable body: %v", p, err)
						return
					}
					want := baseline[p]
					if mb.Digest != want.Digest {
						t.Errorf("%s: digest drifted under faults: %s != %s", p, mb.Digest, want.Digest)
						return
					}
					if string(mb.Measurement) != string(want.Measurement) {
						t.Errorf("%s: 200 body differs from fault-free baseline under faults:\n got %s\nwant %s",
							p, mb.Measurement, want.Measurement)
						return
					}
					cmu.Lock()
					okCount++
					cmu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("round %d: wrong answers under fault injection (quarantine dir: %s)", round, srv.Store().QuarantineDir())
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
	t.Logf("chaos: %d ok, %d gave up after retries; store: %+v", okCount, errCount, st)
	if okCount == 0 {
		t.Fatal("chaos produced no successful requests — faults too aggressive to mean anything")
	}
	if f := inj.Fired(); f[fault.NetDialErr] == 0 || f[fault.NetRespTruncated] == 0 {
		t.Fatalf("network faults never fired (%v): the client is not on the faulty transport", f)
	}
}
