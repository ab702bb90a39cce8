// Benchmarks regenerating every figure of the paper's evaluation (Figs.
// 2–10), the ablations of DESIGN.md §6, and the substrate layers. Figure
// benchmarks report the paper's key metric for that figure via
// b.ReportMetric, so `go test -bench Fig` doubles as a compact results table:
//
//	go test -bench=Fig -benchmem            # all figures, small preset
//	go test -bench=BenchmarkFig9            # just the memory-latency figure
package dssmem_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dssmem/internal/cache"
	"dssmem/internal/db/btree"
	"dssmem/internal/db/storage"
	"dssmem/internal/experiments"
	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/oltp"
	"dssmem/internal/rescache"
	"dssmem/internal/sim"
	"dssmem/internal/tpch"
	"dssmem/internal/trace"
	"dssmem/internal/workload"
)

var (
	benchDataOnce sync.Once
	benchData     *tpch.Data
)

func smallData() *tpch.Data {
	benchDataOnce.Do(func() {
		benchData = tpch.Generate(experiments.Small.SF, experiments.Small.Seed)
	})
	return benchData
}

// benchFigure regenerates one figure per iteration (fresh run cache, shared
// data) and reports the chosen headline metric from the last run.
func benchFigure(b *testing.B, id int, metric func(*experiments.Result) (string, float64)) {
	b.Helper()
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnvWith(experiments.Small, smallData())
		r, err := experiments.RunFigure(env, id, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if metric != nil && last != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

func point(r *experiments.Result, query string, procs int) *workloadPoint {
	for _, s := range r.Series {
		if s.Query == query {
			if m := s.At(procs); m != nil {
				return &workloadPoint{m.CyclesPerMInstr, m.L1MissesPerM, m.L2MissesPerM, m.MemLatencyCycles, m.VolPerM}
			}
		}
	}
	return nil
}

type workloadPoint struct {
	cyclesPerM, l1PerM, l2PerM, memLat, volPerM float64
}

// BenchmarkFig2 regenerates Figure 2 (thread time in cycles, 1 vs 8 procs).
func BenchmarkFig2(b *testing.B) { benchFigure(b, 2, nil) }

// BenchmarkFig3 regenerates Figure 3 (CPI).
func BenchmarkFig3(b *testing.B) { benchFigure(b, 3, nil) }

// BenchmarkFig4 regenerates Figure 4 (data-cache misses and rates).
func BenchmarkFig4(b *testing.B) { benchFigure(b, 4, nil) }

// BenchmarkFig5 regenerates Figure 5 (Origin cycles/1M instr sweep).
func BenchmarkFig5(b *testing.B) {
	benchFigure(b, 5, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q6", 8); p != nil {
			return "sgi-cyc/Minstr@8p", p.cyclesPerM
		}
		return "none", 0
	})
}

// BenchmarkFig6 regenerates Figure 6 (Origin L2 misses/1M instr sweep).
func BenchmarkFig6(b *testing.B) {
	benchFigure(b, 6, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q21", 8); p != nil {
			return "sgi-L2/Minstr@8p", p.l2PerM
		}
		return "none", 0
	})
}

// BenchmarkFig7 regenerates Figure 7 (V-Class cycles/1M instr sweep).
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, 7, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q6", 8); p != nil {
			return "hpv-cyc/Minstr@8p", p.cyclesPerM
		}
		return "none", 0
	})
}

// BenchmarkFig8 regenerates Figure 8 (V-Class Dcache misses/1M instr).
func BenchmarkFig8(b *testing.B) {
	benchFigure(b, 8, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q6", 8); p != nil {
			return "hpv-L1/Minstr@8p", p.l1PerM
		}
		return "none", 0
	})
}

// BenchmarkFig9 regenerates Figure 9 (V-Class memory latency sweep).
func BenchmarkFig9(b *testing.B) {
	benchFigure(b, 9, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q6", 2); p != nil {
			return "hpv-memlat-cyc@2p", p.memLat
		}
		return "none", 0
	})
}

// BenchmarkFig10 regenerates Figure 10 (context switches/1M instr).
func BenchmarkFig10(b *testing.B) {
	benchFigure(b, 10, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q21", 8); p != nil {
			return "hpv-vol/Minstr@8p", p.volPerM
		}
		return "none", 0
	})
}

// benchAblation runs one named ablation per iteration.
func benchAblation(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnvWith(experiments.Small, smallData())
		if _, err := experiments.RunAblation(env, name, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md §6 calls out.
func BenchmarkAblationMigratory(b *testing.B)   { benchAblation(b, "migratory") }
func BenchmarkAblationSpeculation(b *testing.B) { benchAblation(b, "speculation") }
func BenchmarkAblationL2Line(b *testing.B)      { benchAblation(b, "l2line") }
func BenchmarkAblationBackoff(b *testing.B)     { benchAblation(b, "backoff") }
func BenchmarkAblationHeaders(b *testing.B)     { benchAblation(b, "headers") }
func BenchmarkAblationHints(b *testing.B)       { benchAblation(b, "hints") }
func BenchmarkAblationPlacement(b *testing.B)   { benchAblation(b, "placement") }

// BenchmarkSingleRun measures one end-to-end workload run (Q12, 4 processes,
// Origin) — the unit of work every figure is composed of.
func BenchmarkSingleRun(b *testing.B) {
	data := smallData()
	for i := 0; i < b.N; i++ {
		_, err := workload.RunUnchecked(workload.Options{
			Spec:        machine.OriginSpec(32, 64),
			Data:        data,
			Query:       tpch.Q12,
			Processes:   4,
			OSTimeScale: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate benchmarks: the simulator's own performance ---

// BenchmarkCacheLookup measures the tag-array hot path.
func BenchmarkCacheLookup(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", Size: 64 << 10, LineSize: 32, Assoc: 2})
	for i := uint64(0); i < 2048; i++ {
		c.Insert(i, cache.Exclusive)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i) & 2047
		if st, w := c.Probe(line); st == cache.Invalid {
			c.Fill(w, line, cache.Exclusive)
		}
	}
}

// BenchmarkMachineAccess measures one simulated memory instruction through
// the full hierarchy+directory path (mostly hits).
func BenchmarkMachineAccess(b *testing.B) {
	m := machine.New(machine.OriginSpec(4, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := memsys.Addr((i & 0xffff) * 8)
		m.Access(i&3, addr, 8, i&15 == 0, uint64(i))
	}
}

// BenchmarkBTreeLookup measures a charged index descent.
func BenchmarkBTreeLookup(b *testing.B) {
	pool := storage.NewPool(0, 512)
	t := btree.New(pool)
	for i := 0; i < 100_000; i++ {
		t.Insert(int64(i), storage.TID{Page: uint32(i >> 8), Slot: uint16(i & 0xff)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(storage.NullMem{}, int64(i%100_000), nil)
	}
}

// BenchmarkSimKernelHandoff measures the scheduler's context-switch cost.
func BenchmarkSimKernelHandoff(b *testing.B) {
	k := sim.NewKernel(1)
	n := b.N
	for p := 0; p < 2; p++ {
		k.Spawn(func(pr *sim.Proc) {
			for i := 0; i < n/2+1; i++ {
				pr.Advance(1) // one handoff per advance at quantum 1
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimKernelHandoff8 is the 8-process variant: the scheduler pick is
// a linear (clock, ID) min-scan over the runnable set, so the per-handoff
// cost must stay flat in the process count (the previous implementation
// re-sorted the whole set on every handoff).
func BenchmarkSimKernelHandoff8(b *testing.B) {
	k := sim.NewKernel(1)
	n := b.N
	for p := 0; p < 8; p++ {
		k.Spawn(func(pr *sim.Proc) {
			for i := 0; i < n/8+1; i++ {
				pr.Advance(1)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSingleRun8 measures the 8-process configuration (the paper's most
// contended point): one simulation, so one host thread at a time.
func BenchmarkSingleRun8(b *testing.B) {
	data := smallData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := workload.RunUnchecked(workload.Options{
			Spec:        machine.OriginSpec(32, 64),
			Data:        data,
			Query:       tpch.Q6,
			Processes:   8,
			OSTimeScale: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- interval sampling (DESIGN.md §14) ---

// benchSampledFigure regenerates one figure per iteration on the fast path
// dssbench -sample-quanta takes: SMARTS interval sampling at the gate's
// default period. The reported metric is the sampled estimate of the same
// headline number the exact benchmark reports, so the exact-vs-sampled pair
// shows both the speedup and the estimation error side by side.
func benchSampledFigure(b *testing.B, id int, metric func(*experiments.Result) (string, float64)) {
	b.Helper()
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnvWith(experiments.Small, smallData())
		env.SampleQuanta = experiments.DefaultSamplingQuanta
		r, err := experiments.RunFigure(env, id, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if metric != nil && last != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

// BenchmarkSampledFig5 is BenchmarkFig5 under sampling.
func BenchmarkSampledFig5(b *testing.B) {
	benchSampledFigure(b, 5, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q6", 8); p != nil {
			return "sgi-cyc/Minstr@8p", p.cyclesPerM
		}
		return "none", 0
	})
}

// BenchmarkSampledFig9 is BenchmarkFig9 under sampling.
func BenchmarkSampledFig9(b *testing.B) {
	benchSampledFigure(b, 9, func(r *experiments.Result) (string, float64) {
		if p := point(r, "Q6", 2); p != nil {
			return "hpv-memlat-cyc@2p", p.memLat
		}
		return "none", 0
	})
}

// BenchmarkTPCHGenerate measures data generation.
func BenchmarkTPCHGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tpch.Generate(0.002, uint64(i))
	}
}

// BenchmarkQ6Reference measures the plain-Go reference query (upper bound on
// achievable scan speed, for contrast with the simulated run).
func BenchmarkQ6Reference(b *testing.B) {
	data := smallData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpch.RefQ6(data)
	}
}

// Extension-experiment benchmarks.
func BenchmarkAblationTaxonomy(b *testing.B) { benchAblation(b, "taxonomy") }
func BenchmarkAblationMix(b *testing.B)      { benchAblation(b, "mix") }
func BenchmarkAblationOLTP(b *testing.B)     { benchAblation(b, "oltp") }

// BenchmarkOLTPRun measures one transactional run (relation locks, 4 procs).
func BenchmarkOLTPRun(b *testing.B) {
	cfg := oltp.DefaultConfig()
	cfg.Transactions = 50
	for i := 0; i < b.N; i++ {
		st, err := oltp.Run(machine.VClassSpec(16, 64), cfg, 4, 64)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(st.TxPerMCycle(), "tx/Mcycle")
		}
	}
}

// BenchmarkTraceCaptureReplay measures the trace-driven path end to end.
func BenchmarkTraceCaptureReplay(b *testing.B) {
	data := tpch.Generate(0.001, 7)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := trace.CaptureQuery(&buf, data, tpch.Q6); err != nil {
			b.Fatal(err)
		}
		m := machine.New(machine.VClassSpec(2, 256))
		mem := &trace.MachineMem{M: m, CPU: 0}
		if _, err := trace.Replay(bytes.NewReader(buf.Bytes()), mem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryDisabled measures the result-cache memory-hit path as
// the daemon serves it when no request is being tracked (a plain context):
// the phase hooks in rescache must degrade to one context lookup plus no-op
// closures, adding zero allocations (the single alloc here is the cache-key
// concat, which predates telemetry). This is the benchcmp-gated proof that
// request-scoped telemetry costs ~nothing when it is off.
func BenchmarkTelemetryDisabled(b *testing.B) {
	store := rescache.NewMemory()
	dig := rescache.Digest("bench-telemetry-disabled")
	if err := store.Put(rescache.NSMeasurement, dig, []byte(`{"ok":true}`)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := store.Do(ctx, rescache.NSMeasurement, dig, nil); !hit || err != nil {
			b.Fatalf("want mem hit, got hit=%v err=%v", hit, err)
		}
	}
}
