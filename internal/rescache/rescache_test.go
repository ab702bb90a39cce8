package rescache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssmem/internal/machine"
	"dssmem/internal/telemetry"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

func baseOpts() workload.Options {
	return workload.Options{
		Spec:        machine.VClassSpec(16, 256),
		Query:       tpch.Q6,
		Processes:   4,
		OSTimeScale: 256,
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	base := DigestOptions(0.002, 7, baseOpts())
	if base == DigestOptions(0.002, 7, baseOpts()) == false {
		t.Fatal("identical requests produced different digests")
	}
	if len(base) != 64 {
		t.Fatalf("digest %q is not hex sha256", base)
	}

	seen := map[Digest]string{base: "base"}
	variant := func(name string, mutate func(*workload.Options), sf float64, seed uint64) {
		o := baseOpts()
		if mutate != nil {
			mutate(&o)
		}
		d := DigestOptions(sf, seed, o)
		if prev, dup := seen[d]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[d] = name
	}
	variant("sf", nil, 0.006, 7)
	variant("seed", nil, 0.002, 8)
	variant("query", func(o *workload.Options) { o.Query = tpch.Q21 }, 0.002, 7)
	variant("procs", func(o *workload.Options) { o.Processes = 8 }, 0.002, 7)
	variant("spin", func(o *workload.Options) { o.SpinLimit = 1 << 20 }, 0.002, 7)
	variant("bufheader", func(o *workload.Options) { o.BufHeaderBytes = 128 }, 0.002, 7)
	variant("hint", func(o *workload.Options) { o.HintBitFraction = -1 }, 0.002, 7)
	variant("trial", func(o *workload.Options) { o.Trial = 1 }, 0.002, 7)
	variant("cold", func(o *workload.Options) { o.ColdRun = true }, 0.002, 7)
	variant("machine", func(o *workload.Options) { o.Spec = machine.OriginSpec(32, 256) }, 0.002, 7)
}

// TestDigestIgnoresNonIdentity: Data and Obs do not change results, so they
// must not change the address.
func TestDigestIgnoresNonIdentity(t *testing.T) {
	a := baseOpts()
	b := baseOpts()
	b.Data = tpch.Generate(0.002, 7)
	if DigestOptions(0.002, 7, a) != DigestOptions(0.002, 7, b) {
		t.Fatal("Data pointer leaked into the digest")
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := Digest(strings.Repeat("ab", 32))
	if err := s1.Put(NSMeasurement, d, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir) // the "restarted daemon"
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s2.Get(NSMeasurement, d)
	if !ok || string(v) != `{"x":1}` {
		t.Fatalf("Get after reopen = %q, %v", v, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
	// Promoted to memory: second read is a memory hit.
	if _, ok := s2.Get(NSMeasurement, d); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("MemHits = %d, want 1", st.MemHits)
	}
	// No stray temp files.
	matches, _ := filepath.Glob(filepath.Join(dir, NSMeasurement, "*", ".*tmp*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func TestStoreRejectsBadNamespace(t *testing.T) {
	s := NewMemory()
	if err := s.Put("../evil", "d", nil); err == nil {
		t.Fatal("path-traversing namespace accepted")
	}
}

func TestDoSingleflight(t *testing.T) {
	s := NewMemory()
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	results := make([][]byte, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := s.Do(context.Background(), NSMeasurement, "dig", func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("value"), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let every waiter reach the flight before the compute finishes.
	for s.Stats().Shared < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for %d identical concurrent requests", n, waiters)
	}
	for i, v := range results {
		if string(v) != "value" {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
	// The value is now cached: a later Do is a hit with no compute.
	_, hit, err := s.Do(context.Background(), NSMeasurement, "dig", func(context.Context) ([]byte, error) {
		t.Error("compute ran on a cached digest")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("post-flight Do: hit=%v err=%v", hit, err)
	}
}

// TestDoLastWaiterCancels pins the run lifecycle: a compute keeps running
// while anyone still wants it, and is cancelled when the last waiter leaves.
func TestDoLastWaiterCancels(t *testing.T) {
	s := NewMemory()
	started := make(chan struct{})
	aborted := make(chan error, 1)
	compute := func(runCtx context.Context) ([]byte, error) {
		close(started)
		<-runCtx.Done()
		aborted <- context.Cause(runCtx)
		return nil, runCtx.Err()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, _, err := s.Do(ctx1, NSMeasurement, "d", compute)
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := s.Do(ctx2, NSMeasurement, "d", compute)
		errs <- err
	}()
	for s.Stats().Shared < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel1() // first waiter leaves; the run must keep going
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter err = %v", err)
	}
	select {
	case err := <-aborted:
		t.Fatalf("run aborted while a waiter remained: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	cancel2() // last waiter leaves; now the run must abort
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second waiter err = %v", err)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("compute not cancelled after the last waiter left")
	}
	if st := s.Stats(); st.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", st.Aborted)
	}
	// The failed compute must not be cached: a new Do computes again.
	v, hit, err := s.Do(context.Background(), NSMeasurement, "d", func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || hit || string(v) != "fresh" {
		t.Fatalf("retry after abort: v=%q hit=%v err=%v", v, hit, err)
	}
}

// TestDoAfterLastWaiterLeftStartsFresh: once the last waiter has left, the
// abandoned flight may still be unwinding, but a new caller of the same
// digest must not join it and inherit its cancellation; it computes its own
// value.
func TestDoAfterLastWaiterLeftStartsFresh(t *testing.T) {
	s := NewMemory()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, NSMeasurement, "d", func(runCtx context.Context) ([]byte, error) {
			close(started)
			<-runCtx.Done()
			<-release // the cancelled compute has not returned yet
			return nil, runCtx.Err()
		})
		errs <- err
	}()
	<-started
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter err = %v", err)
	}

	type result struct {
		v   []byte
		err error
	}
	res := make(chan result, 1)
	go func() {
		v, _, err := s.Do(context.Background(), NSMeasurement, "d", func(context.Context) ([]byte, error) {
			return []byte("fresh"), nil
		})
		res <- result{v, err}
	}()
	select {
	case r := <-res:
		if r.err != nil || string(r.v) != "fresh" {
			t.Fatalf("Do after the last waiter left: v=%q err=%v", r.v, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do after the last waiter left joined the abandoned flight")
	}
}

// TestDoJoinerSurvivesInitiatorCancel covers the inverse of last-waiter-
// cancels: the caller that STARTED the flight walks away mid-compute while a
// joiner is still waiting. The compute must keep running, the joiner must
// receive the finished value, and — because the flight's context carries the
// initiating request's telemetry — the compute's phase time must still land
// on the initiator, the request that caused the run. The joiner shares the
// result without being charged for it.
func TestDoJoinerSurvivesInitiatorCancel(t *testing.T) {
	s := NewMemory()
	initReq := telemetry.NewRequest()
	joinReq := telemetry.NewRequest()

	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(runCtx context.Context) ([]byte, error) {
		close(started)
		<-release
		// The initiator has cancelled by now, but the flight must still be
		// alive (a joiner waits) and must still track the initiating request.
		if err := runCtx.Err(); err != nil {
			t.Errorf("flight cancelled while the joiner still waits: %v", err)
		}
		if q := telemetry.FromContext(runCtx); q != initReq {
			t.Errorf("flight tracks %p, want the initiating request %p", q, initReq)
		} else {
			q.AddPhase(telemetry.PhaseCompute, 10*time.Millisecond)
		}
		return []byte("survived"), nil
	}

	initCtx, cancelInit := context.WithCancel(telemetry.NewContext(context.Background(), initReq))
	initErrs := make(chan error, 1)
	go func() {
		_, _, err := s.Do(initCtx, NSMeasurement, "joined", compute)
		initErrs <- err
	}()
	<-started

	joinVals := make(chan []byte, 1)
	go func() {
		v, hit, err := s.Do(telemetry.NewContext(context.Background(), joinReq), NSMeasurement, "joined", compute)
		if err != nil || hit {
			t.Errorf("joiner: hit=%v err=%v", hit, err)
		}
		joinVals <- v
	}()
	for s.Stats().Shared < 1 {
		time.Sleep(time.Millisecond)
	}

	cancelInit()
	if err := <-initErrs; !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator err = %v, want context.Canceled", err)
	}
	close(release) // compute finishes only after the initiator is gone

	if v := <-joinVals; string(v) != "survived" {
		t.Fatalf("joiner got %q, want the completed compute's value", v)
	}

	// Attribution: compute time on the initiator, none on the joiner.
	var initCompute time.Duration
	for _, p := range initReq.Phases() {
		if p.Name == telemetry.PhaseCompute {
			initCompute = time.Duration(p.Seconds * float64(time.Second))
		}
	}
	if initCompute < 5*time.Millisecond {
		t.Fatalf("initiator charged %v of compute, want the flight's time", initCompute)
	}
	for _, p := range joinReq.Phases() {
		if p.Name == telemetry.PhaseCompute {
			t.Fatalf("joiner charged %.3fs of compute it merely waited on", p.Seconds)
		}
	}

	// The flight was never orphaned, and its result is cached for everyone.
	if st := s.Stats(); st.Aborted != 0 || st.Misses != 1 || st.Shared != 1 {
		t.Fatalf("stats after joiner survival: %+v", st)
	}
	v, hit, err := s.Do(context.Background(), NSMeasurement, "joined", func(context.Context) ([]byte, error) {
		t.Error("compute ran on a digest the survived flight already cached")
		return nil, nil
	})
	if err != nil || !hit || string(v) != "survived" {
		t.Fatalf("post-flight Do: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestDoPanicIsolation(t *testing.T) {
	s := NewMemory()
	_, _, err := s.Do(context.Background(), NSMeasurement, "boom", func(context.Context) ([]byte, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic surfaced as error", err)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	// The store remains usable and the digest retriable.
	v, _, err := s.Do(context.Background(), NSMeasurement, "boom", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("after panic: v=%q err=%v", v, err)
	}
}

func TestDiskMissFallsThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSMeasurement, "absent"); ok {
		t.Fatal("hit on absent digest")
	}
	if st := s.Stats(); st.DiskErrors != 0 {
		t.Fatalf("a plain miss counted as a disk error: %+v", st)
	}
	// Corrupt namespace dir should not wedge Get.
	os.WriteFile(filepath.Join(dir, "x"), []byte("not a dir"), 0o644)
}
