package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"time"

	"dssmem/internal/db/engine"
	"dssmem/internal/experiments"
	"dssmem/internal/tpch"
)

// TestSmokeTiny runs every workload once, traced, at the tiny preset, and
// checks that the result line carries every metric BENCHMARK.json names, with
// its unit, and that no operation failed.
func TestSmokeTiny(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c := defaultConfig()
			c.workload, c.tiny, c.trace = w.name, true, true
			c.traceFile = filepath.Join(t.TempDir(), "trace.json")
			c.seconds, c.setupReps, c.setupSeconds, c.minPasses, c.minOps = 0, 1, 0, 1, 1
			c.oltpTransactions, c.apiPassRequests, c.probeRequests = 20, 64, 20
			r, err := runWorkload(c)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
			}
			for _, m := range spec.EndToEnd {
				if s, ok := r.Metrics[m.Name]; !ok || s.Unit != m.Unit || s.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v, want unit %s and a positive value", m.Name, s, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if s, ok := r.Layers[m.Name]; !ok || s.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, s, m.Unit)
				}
			}
			for _, trace := range []bool{false, true} {
				var buf bytes.Buffer
				if err := printResult(&buf, r, trace); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
					t.Fatalf("result line %q: %v", buf.String(), err)
				}
				want := len(spec.EndToEnd)
				if trace {
					want = len(spec.PerLayer)
				}
				if len(line.Metrics) != want || !line.Correct || line.Failed != 0 {
					t.Errorf("trace=%v result line has %d metrics (want %d), correct %v, failed %d", trace, len(line.Metrics), want, line.Correct, line.Failed)
				}
			}
		})
	}
}

// TestNominalProcTerminatesQ21 runs Q21, whose lock traffic goes through
// SpinLock.Acquire, on the benchmark's no-memory-model process. A process
// whose clock did not advance would spin forever inside the first contended
// acquisition.
func TestNominalProcTerminatesQ21(t *testing.T) {
	data := tpch.Generate(experiments.Tiny.SF, experiments.Tiny.Seed)
	db := engine.Open(engine.Config{PoolPages: tpch.PoolPagesFor(data)})
	tpch.Load(db, data)
	proc := &nominalProc{}
	done := make(chan *tpch.Result, 1)
	go func() { done <- tpch.Run(tpch.Q21, db.NewSession(proc, 0)) }()
	select {
	case res := <-done:
		if res.Digest() != tpch.Ref(tpch.Q21, data).Digest() {
			t.Fatal("Q21 answer differs from the reference implementation")
		}
		if proc.refs == 0 {
			t.Fatal("no references counted")
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Q21 did not finish on the nominal process")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {250000, 0.99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(range(1, 11), n=4).
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestSelfTimes checks span self time: duration minus the union of the
// children's intervals, clipped to the parent.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 4, Parent: 1, Name: "a.x", Start: 15 * ms, End: 20 * ms},
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 30 * ms, 5 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	lane := lanes(spans)
	if lane[0] != 0 || lane[1] == lane[2] || lane[4] != lane[1] {
		t.Errorf("lanes %v: overlapping siblings must differ and a child must share its parent's lane", lane)
	}
}

func TestVerdict(t *testing.T) {
	s := func(v, q1, q3 float64) summary { return summary{Value: v, Q1: q1, Q3: q3, N: 4} }
	for _, tc := range []struct {
		base, cur summary
		better    string
		want      string
	}{
		{s(100, 99, 101), s(105, 104, 106), "lower", "unchanged"},
		{s(100, 99, 101), s(115, 114, 116), "lower", "worse"},
		{s(100, 99, 101), s(85, 84, 86), "lower", "better"},
		{s(100, 99, 101), s(85, 84, 86), "higher", "worse"},
		{s(100, 80, 120), s(115, 110, 120), "lower", "unresolved"},
		{s(100, 80, 120), s(50, 48, 52), "lower", "better"},
	} {
		if got, _ := verdict(tc.base, tc.cur, tc.better, 0.10, 0); got != tc.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", tc.base.Value, tc.cur.Value, tc.better, got, tc.want)
		}
	}
	if got, _ := verdict(s(0.002, 0.002, 0.002), s(0.003, 0.003, 0.003), "lower", 0.10, 0.005); got != "unchanged" {
		t.Errorf("a change within the absolute slack = %s, want unchanged", got)
	}
}
