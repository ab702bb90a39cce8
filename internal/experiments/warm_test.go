package experiments

// Every simulated run builds its warm state — the buffer pool and indexes the
// query finds on entry to the measured region — from scratch in its own
// prelude; there is no checkpoint to restore. What survives a process is the
// result cache. These tests pin both halves: warm-up is independent of what
// ran before it, and a warm (disk-persisted) result store is read back intact
// or, when damaged, recomputed and healed.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dssmem/internal/core"
	"dssmem/internal/rescache"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// countingEnv returns a fakeEnv over store whose runs are counted in runs.
func countingEnv(store *rescache.Store, runs *atomic.Int64) *Env {
	e := fakeEnv(func(_ context.Context, o workload.Options) (*workload.Stats, error) {
		runs.Add(1)
		return fakeStats(o), nil
	})
	e.Results = store
	return e
}

// noRunEnv returns an Env over store that fails the test if it simulates.
func noRunEnv(t *testing.T, store *rescache.Store) *Env {
	e := fakeEnv(func(context.Context, workload.Options) (*workload.Stats, error) {
		t.Error("a warm store was bypassed: the env ran a simulation")
		return nil, errors.New("unreachable")
	})
	e.Results = store
	return e
}

func openStore(t *testing.T, dir string) *rescache.Store {
	t.Helper()
	s, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmRestoreByteIdentical: the warm-up prelude rebuilds its state from
// scratch on every run, so a point measured first in a fresh env is exactly
// the point measured after other runs in another env — no state leaks from
// one run's warm-up into the next. The tally sees a prelude and a measured
// region for every simulated run.
func TestWarmRestoreByteIdentical(t *testing.T) {
	spec := sharedEnv.VClass()

	fresh := NewEnvWith(Tiny, sharedEnv.Data)
	want, err := fresh.Measure(spec, tpch.Q6, 2)
	if err != nil {
		t.Fatal(err)
	}

	used := NewEnvWith(Tiny, sharedEnv.Data)
	used.Tally = &RunTally{}
	for _, q := range []tpch.QueryID{tpch.Q12, tpch.Q6} {
		if _, err := used.Measure(spec, q, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := used.Measure(spec, tpch.Q6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("measurement depends on the runs before it:\nfresh %+v\nused  %+v", want, got)
	}

	runs, warmupNS, measuredNS := used.Tally.Snapshot()
	if runs != 3 || warmupNS <= 0 || measuredNS <= 0 {
		t.Fatalf("tally runs=%d warmup=%dns measured=%dns, want 3 runs with both phases timed", runs, warmupNS, measuredNS)
	}
}

// TestWarmAttach: a fresh env attached to the disk store a previous env
// filled answers a whole sweep from it — same series, no simulation, nothing
// tallied.
func TestWarmAttach(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	first := countingEnv(openStore(t, dir), &runs)
	want, err := first.Sweep("vclass", first.VClass(), tpch.Q6, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != int64(len(ProcCounts)) {
		t.Fatalf("first sweep ran %d simulations, want %d", n, len(ProcCounts))
	}

	attached := noRunEnv(t, openStore(t, dir))
	attached.Tally = &RunTally{}
	got, err := attached.Sweep("vclass", attached.VClass(), tpch.Q6, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attached sweep differs:\nwant %+v\ngot  %+v", want, got)
	}
	if n, _, _ := attached.Tally.Snapshot(); n != 0 {
		t.Fatalf("attached env tallied %d runs, want 0", n)
	}
}

// corruptions are the two ways a cached entry goes bad on disk.
var corruptions = []struct {
	name string
	mut  func(t *testing.T, path string)
}{
	{"truncated", func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"garbage", func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte("}{ not a frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

// seedMeasurement fills a disk store at dir with one measurement and returns
// it with the path of its entry.
func seedMeasurement(t *testing.T, dir string) (core.Measurement, string) {
	t.Helper()
	var runs atomic.Int64
	e := countingEnv(openStore(t, dir), &runs)
	m, err := e.Measure(e.VClass(), tpch.Q6, 2)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, rescache.NSMeasurement, "*", "*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one measurement entry on disk, got %v (err %v)", paths, err)
	}
	return m, paths[0]
}

// TestWarmCheckpointCorruptionFallsBack: a truncated or garbage entry in the
// warm store is quarantined by the store's frame check and the measurement
// falls back to a fresh simulation — same result, no panic, no wrong figure.
func TestWarmCheckpointCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	want, path := seedMeasurement(t, dir)

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			c.mut(t, path)
			store := openStore(t, dir) // fresh memory tier: reads hit disk
			var runs atomic.Int64
			e := countingEnv(store, &runs)
			got, err := e.Measure(e.VClass(), tpch.Q6, 2)
			if err != nil {
				t.Fatalf("measure over a corrupt entry: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("measurement changed after corruption:\nwant %+v\ngot  %+v", want, got)
			}
			if runs.Load() != 1 {
				t.Fatalf("ran %d simulations, want 1 (the fallback)", runs.Load())
			}
			if q := store.Stats().Quarantined; q == 0 {
				t.Fatalf("corrupt entry was not quarantined (stats %+v)", store.Stats())
			}
		})
	}
}

// TestWarmSnapshotSelfHeal: the fallback's result replaces the damaged entry,
// so the next process reads a sound entry from disk without simulating.
func TestWarmSnapshotSelfHeal(t *testing.T) {
	dir := t.TempDir()
	want, path := seedMeasurement(t, dir)
	corruptions[0].mut(t, path)

	var runs atomic.Int64
	healer := countingEnv(openStore(t, dir), &runs)
	if _, err := healer.Measure(healer.VClass(), tpch.Q6, 2); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("ran %d simulations over the damaged entry, want 1", runs.Load())
	}

	store := openStore(t, dir)
	e := noRunEnv(t, store)
	got, hit, err := e.MeasureCached(e.VClass().Name, tpch.Q6, 2, workload.Options{Spec: e.VClass()})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || !reflect.DeepEqual(got, want) {
		t.Fatalf("healed entry: hit=%v got %+v, want a hit on %+v", hit, got, want)
	}
	if st := store.Stats(); st.Quarantined != 0 || st.DiskHits != 1 {
		t.Fatalf("healed entry read: stats %+v, want one clean disk hit", st)
	}
}
