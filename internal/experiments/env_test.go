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
// other simulation, so env-wide sampling and the runner apply to all of them.
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
}

// TestOLTPRunsThroughEnv: the oltp experiment's runs go through the env's
// runner like every other simulation, and stay exact under env-wide
// sampling.
func TestOLTPRunsThroughEnv(t *testing.T) {
	var runs atomic.Int64
	e := fakeEnv(func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		runs.Add(1)
		return workload.RunContext(ctx, o)
	})
	e.SampleQuanta = 8
	sampled, err := OLTP(e)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 8 {
		t.Fatalf("runner saw %d runs, want 8", runs.Load())
	}
	exact, err := OLTP(NewEnvWith(Tiny, sharedEnv.Data))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(sampled.Rows, exact.Rows, slices.Equal) {
		t.Fatalf("a sampling env changed the OLTP rows:\n%v\nwant\n%v", sampled.Rows, exact.Rows)
	}
}

// TestMeasureCachedRejectsProgram: no digest covers a Program, so a cached
// measurement of one is an error before anything runs.
func TestMeasureCachedRejectsProgram(t *testing.T) {
	e := fakeEnv(func(context.Context, workload.Options) (*workload.Stats, error) {
		t.Fatal("a Program run reached the runner")
		return nil, nil
	})
	spec := e.VClass()
	opts := workload.Options{Spec: spec, Program: workload.Queries(tpch.Q6, tpch.Q21)}
	if _, _, _, err := e.MeasureCached(spec.Name, tpch.Q6, 2, opts); err == nil {
		t.Fatal("MeasureCached accepted a Program")
	}
}

// TestColdWarmByteIdentical is the determinism contract of the result cache:
// the same digest yields byte-identical Measurement JSON whether the result
// was just simulated (cold) or read by a fresh process-equivalent store from
// disk (warm disk), and both match the JSON of a direct workload.Run of the
// canonical options.
func TestColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := sharedEnv.VClass()

	cold := NewEnvWith(Tiny, sharedEnv.Data)
	store1, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold.Results = store1
	var runs []*workload.Stats
	cold.Runner = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		st, err := workload.RunContext(ctx, o)
		runs = append(runs, st)
		return st, err
	}
	m1, _, hit, err := cold.MeasureCached(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}
	if len(runs) != 1 || runs[0].WarmupHostNS <= 0 || runs[0].MeasuredHostNS <= 0 {
		t.Fatalf("cold runner saw %d runs, want 1 run with both host phases timed", len(runs))
	}

	warm := NewEnvWith(Tiny, sharedEnv.Data)
	store2, err := rescache.Open(dir) // fresh store over the same disk: a daemon restart
	if err != nil {
		t.Fatal(err)
	}
	warm.Results = store2
	warm.Runner = func(context.Context, workload.Options) (*workload.Stats, error) {
		t.Error("warm path ran a simulation")
		return nil, errors.New("unreachable")
	}
	m2, _, hit, err := warm.MeasureCached(spec.Name, tpch.Q6, 1, workload.Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk-persisted result not found after 'restart'")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("cold/warm JSON differ:\ncold %s\nwarm %s", m1, m2)
	}

	// And both equal a direct, cache-free workload run.
	direct := cold.CanonicalOptions(tpch.Q6, 1, workload.Options{Spec: spec})
	direct.Data = sharedEnv.Data
	st, err := workload.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(core.FromStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, m1) {
		t.Fatalf("cached measurement differs from a direct workload.Run:\ncached %s\ndirect %s", m1, b)
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

// TestMeasureAllCancelledStartsNoMoreCells: once the env's context is
// cancelled, MeasureAll starts no further cell, so no later cell opens a
// store flight that would simulate, and perhaps cache, an unwanted run. The
// unstarted lowest-indexed cell reports the cancellation.
func TestMeasureAllCancelledStartsNoMoreCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		calls.Add(1)
		cancel()
		return nil, errors.New("injected failure")
	})
	e.Ctx = ctx
	e.Parallelism = 1
	// The 5-process cell starts first; cell 0 is never started.
	var cells []Cell
	for procs := 1; procs <= 5; procs++ {
		cells = append(cells, Cell{Tag: "vclass", Query: tpch.Q6, Procs: procs, Opts: workload.Options{Spec: e.VClass()}})
	}
	_, err := e.MeasureAll(cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
	if m := e.Results.Stats().Misses; m != 1 {
		t.Fatalf("store misses = %d, want 1: a cell started after cancellation", m)
	}
}

// TestColdRunRepeatRunsNothing: coldrun's cold runs are stored cells like
// its warm ones, so a second ColdRun on the same env simulates nothing and
// renders the same rows, and the cold cell /v1/measure asks for is a hit.
func TestColdRunRepeatRunsNothing(t *testing.T) {
	var calls atomic.Int64
	e := NewEnvWith(Tiny, sharedEnv.Data)
	e.Runner = func(ctx context.Context, o workload.Options) (*workload.Stats, error) {
		calls.Add(1)
		return workload.RunContext(ctx, o)
	}
	first, err := ColdRun(e)
	if err != nil {
		t.Fatal(err)
	}
	n := calls.Load()
	second, err := ColdRun(e)
	if err != nil {
		t.Fatal(err)
	}
	if extra := calls.Load() - n; extra != 0 {
		t.Fatalf("the repeated ColdRun ran %d simulations, want 0", extra)
	}
	if !slices.EqualFunc(first.Rows, second.Rows, slices.Equal) {
		t.Fatalf("rows differ between runs:\n%v\n%v", first.Rows, second.Rows)
	}
	// handleMeasure's options for machine=vclass&query=Q6&procs=1&cold=1.
	if _, _, hit, err := e.MeasureCached("vclass", tpch.Q6, 1, workload.Options{Spec: e.VClass(), ColdRun: true}); err != nil || !hit {
		t.Fatalf("the cold Q6 cell: hit=%v err=%v, want the cell ColdRun stored", hit, err)
	}
}

// TestColdRunDiskReadsMatchDirectRun pins coldrun's derived columns: a cold
// row's vol switches and disk reads, computed from the stored measurement,
// equal the voluntary switches and DiskReads of a direct cold run.
func TestColdRunDiskReadsMatchDirectRun(t *testing.T) {
	e := NewEnvWith(Tiny, sharedEnv.Data)
	r, err := ColdRun(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []tpch.QueryID{tpch.Q6, tpch.Q21, tpch.Q12} {
		opts := e.CanonicalOptions(q, 1, workload.Options{Spec: e.VClass(), ColdRun: true})
		opts.Data = e.Data
		st, err := workload.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(r.Rows, func(row []string) bool { return row[0] == q.String() && row[1] == "cold (trial 1)" })
		if i < 0 {
			t.Fatalf("no cold row for %v", q)
		}
		want := []string{fmt.Sprint(st.Procs[0].Vol), fmt.Sprint(st.DiskReads)}
		if got := r.Rows[i][4:6]; !slices.Equal(got, want) || st.DiskReads == 0 {
			t.Errorf("%v: vol switches, disk reads = %v, direct cold run %v", q, got, want)
		}
	}
}

// TestMissesCountJoiners: Env.Misses counts every measurement the store did
// not answer as a hit, the one that joined another cell's flight included,
// and a repeat of the batch, answered from the store, adds none.
func TestMissesCountJoiners(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		calls.Add(1)
		<-gate
		return fakeStats(o), nil
	})
	e.Parallelism = 2
	cell := Cell{Tag: "vclass", Query: tpch.Q6, Procs: 1, Opts: workload.Options{Spec: e.VClass()}}
	done := make(chan error, 1)
	go func() {
		_, err := e.MeasureAll([]Cell{cell, cell})
		done <- err
	}()
	for e.Results.Stats().Shared < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := e.Misses(); n != 2 || calls.Load() != 1 {
		t.Fatalf("misses = %d after %d run(s), want 2 after 1", n, calls.Load())
	}
	if _, err := e.MeasureAll([]Cell{cell, cell}); err != nil {
		t.Fatal(err)
	}
	if n := e.Misses(); n != 2 {
		t.Fatalf("misses = %d after the repeat, want 2: store hits counted", n)
	}
}
