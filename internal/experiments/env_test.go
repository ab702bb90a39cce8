package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/perfctr"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// fakeEnv returns an Env whose Runner is a synthetic workload: instant, and
// parameterized by the options so distinct configurations yield distinct
// measurements.
func fakeEnv(runner func(context.Context, workload.Options) (*workload.Stats, error)) *Env {
	e := NewEnvWith(Tiny, sharedEnv.Data)
	e.Runner = runner
	return e
}

func fakeStats(o workload.Options) *workload.Stats {
	cyc := uint64(1000 + 10*o.SpinLimit + o.Processes)
	return &workload.Stats{
		MachineName: o.Spec.Name,
		ClockMHz:    o.Spec.ClockMHz,
		Query:       o.Query,
		Processes:   o.Processes,
		Procs: []workload.ProcStats{{
			Query:        o.Query,
			Counters:     perfctr.Counters{Instructions: 1000, Cycles: cyc},
			ThreadCycles: cyc,
			WallCycles:   cyc + 100,
		}},
	}
}

// TestMeasureOptsKeysOnOptionsNotTag is the regression test for the cache-key
// collision hazard: two ablations passing different workload.Options under
// the SAME tag must not share a measurement, and the same options under
// DIFFERENT tags must.
func TestMeasureOptsKeysOnOptionsNotTag(t *testing.T) {
	var calls atomic.Int64
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		calls.Add(1)
		return fakeStats(o), nil
	})
	spec := e.VClass()

	plain, err := e.MeasureOpts("sametag", tpch.Q21, 8, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	spun, err := e.MeasureOpts("sametag", tpch.Q21, 8, workload.Options{Spec: spec, SpinLimit: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("runs = %d: different options under one tag shared a cache entry", calls.Load())
	}
	if plain == spun {
		t.Fatal("distinct configurations returned the same measurement")
	}

	again, err := e.MeasureOpts("othertag", tpch.Q21, 8, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("runs = %d: identical options under a new tag re-ran the simulation", calls.Load())
	}
	if again != plain {
		t.Fatal("tag leaked into the cache key")
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	boom := errors.New("injected mid-sweep failure")
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		if o.Processes == 6 {
			return nil, boom
		}
		return fakeStats(o), nil
	})
	_, err := e.Sweep("vclass", e.VClass(), tpch.Q6, workload.Options{})
	if err == nil {
		t.Fatal("failing measurement did not fail the sweep")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure in the chain", err)
	}
}

func TestSweepBoundedParallelism(t *testing.T) {
	var cur, peak atomic.Int64
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // hold the slot so overlap is observable
		return fakeStats(o), nil
	})
	e.Parallelism = 2
	if _, err := e.Sweep("vclass", e.VClass(), tpch.Q6, workload.Options{}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent runs, semaphore bound is 2", p)
	}
	// A whole figure is one 15-cell batch on the same two slots.
	if _, err := RunFigure(e, 5, nil); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent runs during Figure 5, semaphore bound is 2", p)
	}
}

// cellStart is one recorded runner call.
type cellStart struct {
	q     tpch.QueryID
	procs int
}

// recordingEnv is a one-slot fakeEnv that records the order its runs start.
func recordingEnv() (*Env, func() []cellStart) {
	var mu sync.Mutex
	var starts []cellStart
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		mu.Lock()
		starts = append(starts, cellStart{o.Query, o.Processes})
		mu.Unlock()
		return fakeStats(o), nil
	})
	e.Parallelism = 1
	return e, func() []cellStart {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(starts)
	}
}

// TestFigureBatchStartsLongestFirst: Figure 5 is one batch whose cells start
// at the most processes first, the three queries interleaved at each count,
// and whose series still come back in ProcCounts order.
func TestFigureBatchStartsLongestFirst(t *testing.T) {
	e, starts := recordingEnv()
	r, err := RunFigure(e, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []cellStart
	for i := len(ProcCounts) - 1; i >= 0; i-- {
		for _, q := range tpch.AllQueries {
			want = append(want, cellStart{q, ProcCounts[i]})
		}
	}
	if got := starts(); !slices.Equal(got, want) {
		t.Fatalf("start order\n got %v\nwant %v", got, want)
	}
	if len(r.Series) != len(tpch.AllQueries) {
		t.Fatalf("series = %d, want %d", len(r.Series), len(tpch.AllQueries))
	}
	for i, s := range r.Series {
		if s.Query != tpch.AllQueries[i].String() {
			t.Fatalf("series %d is %s, want %v", i, s.Query, tpch.AllQueries[i])
		}
		for j, n := range ProcCounts {
			if s.Points[j].Processes != n {
				t.Fatalf("%s point %d has %d processes, want %d", s.Query, j, s.Points[j].Processes, n)
			}
		}
	}
}

// TestBothEndsStartsEightProcessCellsFirst: Figs. 2–4 measure their twelve
// cells as one batch, every 8-process cell starting before any 1-process one.
func TestBothEndsStartsEightProcessCellsFirst(t *testing.T) {
	e, starts := recordingEnv()
	if _, err := Fig2(e); err != nil {
		t.Fatal(err)
	}
	got := starts()
	if len(got) != 12 {
		t.Fatalf("Fig 2 ran %d cells, want 12: %v", len(got), got)
	}
	for i, c := range got {
		want := 8
		if i >= 6 {
			want = 1
		}
		if c.procs != want {
			t.Fatalf("start %d is %v, want a %d-process cell: %v", i, c, want, got)
		}
	}
}

// TestMixRunsThroughEnv: the mixed runs of Mix go through the env like every
// other simulation, so env-wide sampling, the runner and the tally apply to
// all of them.
func TestMixRunsThroughEnv(t *testing.T) {
	var mu sync.Mutex
	var quanta []int
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		mu.Lock()
		quanta = append(quanta, o.SampleQuanta)
		mu.Unlock()
		return fakeStats(o), nil
	})
	e.SampleQuanta = 8
	e.Tally = &RunTally{}
	if _, err := Mix(e); err != nil {
		t.Fatal(err)
	}
	if len(quanta) != 8 {
		t.Fatalf("runner saw %d runs, want 8 (6 alone + 2 mixed)", len(quanta))
	}
	for i, q := range quanta {
		if q != 8 {
			t.Fatalf("run %d has SampleQuanta %d, want the env's 8", i, q)
		}
	}
	if runs, _, _ := e.Tally.Snapshot(); runs != 8 {
		t.Fatalf("tally counted %d runs, want 8", runs)
	}
}

// TestColdWarmByteIdentical is the determinism contract of the result cache:
// the same digest yields byte-identical Measurement JSON whether the result
// was just simulated (cold), read back from the same store (warm memory), or
// read by a fresh process-equivalent store from disk (warm disk) — and all
// match a direct workload.Run of the canonical options.
func TestColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := sharedEnv.VClass()

	marshal := func(m core.Measurement) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cold := NewEnvWith(Tiny, sharedEnv.Data)
	store1, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.Results = store1
	cold.Tally = &RunTally{}
	m1, hit, err := cold.MeasureCached(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}
	if runs, warmupNS, measuredNS := cold.Tally.Snapshot(); runs != 1 || warmupNS <= 0 || measuredNS <= 0 {
		t.Fatalf("cold tally runs=%d warmup=%dns measured=%dns, want 1 run with both phases timed", runs, warmupNS, measuredNS)
	}

	warm := NewEnvWith(Tiny, sharedEnv.Data)
	store2, err := rescache.Open(dir) // fresh store over the same disk: a daemon restart
	if err != nil {
		t.Fatal(err)
	}
	warm.Results = store2
	warm.Tally = &RunTally{}
	warm.Runner = func(context.Context, workload.Options) (*workload.Stats, error) {
		t.Error("warm path ran a simulation")
		return nil, errors.New("unreachable")
	}
	m2, hit, err := warm.MeasureCached(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk-persisted result not found after 'restart'")
	}
	if runs, _, _ := warm.Tally.Snapshot(); runs != 0 {
		t.Fatalf("warm env tallied %d runs, want 0: cache hits run nothing", runs)
	}
	if !bytes.Equal(marshal(m1), marshal(m2)) {
		t.Fatalf("cold/warm JSON differ:\ncold %s\nwarm %s", marshal(m1), marshal(m2))
	}

	// And both equal a direct, cache-free workload run.
	direct := cold.CanonicalOptions(tpch.Q6, 1, workload.Options{Spec: spec})
	direct.Data = sharedEnv.Data
	st, err := workload.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(core.FromStats(st)), marshal(m1)) {
		t.Fatal("cached measurement differs from a direct workload.Run")
	}
}

// TestFiguresIndependentOfHostParallelism pins determinism of the one
// scheduling mode: Figures 5 and 10, regenerated in fresh envs, are
// byte-identical at one MeasureAll slot on one host thread and at four
// slots on four threads. Host parallelism may change how fast a figure
// arrives, never what it says.
func TestFiguresIndependentOfHostParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates two figures twice; skipped in -short mode")
	}
	render := func(slots int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(slots))
		e := NewEnvWith(Tiny, sharedEnv.Data)
		e.Parallelism = slots
		var buf bytes.Buffer
		for _, id := range []int{5, 10} {
			r, err := RunFigure(e, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	one, four := render(1), render(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("figure JSON differs between 1 and 4 slots:\n1: %s\n4: %s", one, four)
	}
}

// TestMeasureCtxCancellation: a cancelled Env context aborts the measurement
// instead of waiting for it.
func TestMeasureCtxCancellation(t *testing.T) {
	started := make(chan struct{})
	e := fakeEnv(func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		close(started)
		<-ctx.Done()
		return nil, fmt.Errorf("aborted: %w", context.Cause(ctx))
	})
	ctx, cancel := context.WithCancel(context.Background())
	e.Ctx = ctx
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = e.Measure(e.VClass(), tpch.Q6, 1)
	}()
	<-started
	cancel()
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
