package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"dssmem/internal/db/engine"
	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/perfctr"
	"dssmem/internal/rescache"
	"dssmem/internal/service"
	"dssmem/internal/sim"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// layerMetrics are the per-layer metrics with their units, in BENCHMARK.json
// order. Counts from workload statistics are summed over every simulation
// run of the traced run: the traced pass's runs plus the three probe runs. A
// layer a workload does not exercise reads 0 (the oltp and obs counts, and
// the pass's rescache counts, outside their workloads).
var layerMetrics = []struct{ name, unit string }{
	{"tpch.generate_ms", "ms"},
	{"tpch.ref_q6_ms", "ms"},
	{"tpch.ref_q21_ms", "ms"},
	{"tpch.ref_q12_ms", "ms"},
	{"db.load_ms", "ms"},
	{"db.q6_ms", "ms"},
	{"db.q21_ms", "ms"},
	{"db.q12_ms", "ms"},
	{"db.refs", "count"},
	{"db.ns_per_ref", "ns"},
	{"db.allocs_per_query", "count"},
	{"db.pins", "count"},
	{"db.bufmgr_acquires", "count"},
	{"db.bufmgr_contended", "count"},
	{"db.relation_acquires", "count"},
	{"db.spin_iterations", "count"},
	{"db.lock_backoffs", "count"},
	{"machine.replay_q6_ms", "ms"},
	{"machine.replay_q21_ms", "ms"},
	{"machine.replay_q12_ms", "ms"},
	{"machine.ns_per_access_1cpu", "ns"},
	{"machine.ns_per_access_8cpu", "ns"},
	{"cache.l1_misses", "count"},
	{"cache.l2_misses", "count"},
	{"cache.l1_hit_ratio", "fraction"},
	{"cache.l2_hit_ratio", "fraction"},
	{"cache.upgrades", "count"},
	{"coherence.reads", "count"},
	{"coherence.writes", "count"},
	{"coherence.dirty_interventions", "count"},
	{"coherence.clean_interventions", "count"},
	{"coherence.speculative_hits", "count"},
	{"coherence.migratory_transfers", "count"},
	{"coherence.invalidations", "count"},
	{"coherence.writebacks", "count"},
	{"interconnect.mem_requests", "count"},
	{"interconnect.avg_latency_cyc", "cycles"},
	{"interconnect.queue_wait_frac", "fraction"},
	{"interconnect.dirty_3hop", "count"},
	{"simos.measured_q6_ms", "ms"},
	{"simos.measured_q21_ms", "ms"},
	{"simos.measured_q12_ms", "ms"},
	{"simos.residual_q6_ms", "ms"},
	{"simos.residual_q21_ms", "ms"},
	{"simos.residual_q12_ms", "ms"},
	{"simos.vol_switches", "count"},
	{"simos.invol_switches", "count"},
	{"sim.handoff_ns", "ns"},
	{"workload.runs", "count"},
	{"workload.run_ms_p50", "ms"},
	{"workload.run_ms_p90", "ms"},
	{"workload.warmup_ms", "ms"},
	{"workload.measured_ms", "ms"},
	{"workload.other_ms", "ms"},
	{"experiments.slot_util", "fraction"},
	{"obs.detailed_instr_frac", "fraction"},
	{"obs.ff_accesses", "count"},
	{"obs.sample_rel_err", "fraction"},
	{"oltp.tx_per_mcycle", "tx/Mcycle"},
	{"oltp.backoffs", "count"},
	{"oltp.dirty_3hop", "count"},
	{"oltp.coherence_pct", "%"},
	{"service.handler_us_p50", "us"},
	{"net.overhead_us", "us"},
	{"rescache.do_hit_ns", "ns"},
	{"rescache.mem_hits", "count"},
	{"rescache.misses", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace_overhead_frac", "fraction"},
	{"host.calib_ms", "ms"},
}

// probeReps is how many times each engine and reference probe is timed.
const probeReps = 3

// traceRun runs the traced pass and the layer probes, writes their spans as a
// Chrome trace, and returns the per-layer values it measured and the traced
// pass's wall time.
func traceRun(c runConfig, in *instance, r *workloadReport, pass func(*recorder) (time.Duration, time.Duration)) (map[string]float64, time.Duration, error) {
	v := map[string]float64{}
	rec := newRecorder(true)

	var storeBefore rescache.Stats
	if in.store != nil {
		storeBefore = in.store.Stats()
	}
	rt0 := readRuntime()
	endPass := rec.open("pass " + c.workload)
	wall, _ := pass(rec)
	endPass()
	rt1 := readRuntime()

	v["experiments.slot_util"] = rec.opSum.Seconds() / (wall.Seconds() * float64(c.workers))
	v["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20)
	v["runtime.mallocs"] = rt1.mallocs - rt0.mallocs
	v["runtime.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
	if cpu := rt1.cpuTotal - rt0.cpuTotal; cpu > 0 {
		v["runtime.gc_cpu_frac"] = (rt1.cpuGC - rt0.cpuGC) / cpu
	}
	switch {
	case rec.store != nil: // a fresh store per pass: its counts are the pass's
		st := rec.store.Stats()
		v["rescache.mem_hits"], v["rescache.misses"] = float64(st.MemHits), float64(st.Misses)
	case in.store != nil:
		st := in.store.Stats()
		v["rescache.mem_hits"] = float64(st.MemHits - storeBefore.MemHits)
		v["rescache.misses"] = float64(st.Misses - storeBefore.Misses)
	}
	v["obs.sample_rel_err"] = rec.sampleRelErr
	oltpLayer(rec, v)

	opsBefore, failedBefore := len(rec.opsMS), rec.failed
	endProbes := rec.open("probes")
	err := probeQueries(in, rec, v)
	if err == nil {
		err = probeHandoff(rec, v)
	}
	if err == nil {
		err = probeService(c, in, rec, v)
	}
	endProbes()
	if err != nil {
		return nil, 0, err
	}
	r.Attempted += len(rec.opsMS) - opsBefore
	r.Failed += rec.failed - failedBefore
	runLayers(rec, v)

	path := c.traceFile
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+c.workload+".json")
	}
	if err := writeTraceFile(path, rec.spans); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(os.Stderr, "dssperf: %s: wrote %d spans to %s\n", c.workload, len(rec.spans), path)
	return v, wall, nil
}

func writeTraceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// oltpLayer summarizes the traced pass's OLTP runs.
func oltpLayer(rec *recorder, v map[string]float64) {
	if len(rec.oltps) == 0 {
		return
	}
	var tx, coh float64
	for _, st := range rec.oltps {
		tx += st.TxPerMCycle()
		coh += st.CoherencePct
		v["oltp.backoffs"] += float64(st.Backoffs)
		v["oltp.dirty_3hop"] += float64(st.Dirty3Hop)
	}
	n := float64(len(rec.oltps))
	v["oltp.tx_per_mcycle"], v["oltp.coherence_pct"] = tx/n, coh/n
}

// runLayers sums the workload statistics of every simulation run recorded.
func runLayers(rec *recorder, v map[string]float64) {
	var ct perfctr.Counters
	// l1OfTwoLevel counts the L1 misses of runs on two-level machines (the
	// only ones that count L2 misses), which are those runs' L2 accesses.
	var queueWait, totalLatency, detailed, l1OfTwoLevel uint64
	var runMS []float64
	self := selfTimes(rec.spans)
	add := func(name string, x uint64) { v[name] += float64(x) }
	for _, run := range rec.runs {
		st := run.st
		for i := range st.Procs {
			p := &st.Procs[i]
			ct.Add(&p.Counters)
			if p.Counters.L2DMisses > 0 {
				l1OfTwoLevel += p.Counters.L1DMisses
			}
			add("simos.vol_switches", p.Vol)
			add("simos.invol_switches", p.Invol)
			if st.Sampling == nil {
				detailed += p.Counters.Instructions
			}
		}
		for _, e := range st.Sampling {
			detailed += e.DetailedInstr
			add("obs.ff_accesses", e.FFAccesses)
		}
		d := st.Dir
		add("coherence.reads", d.Reads)
		add("coherence.writes", d.Writes)
		add("coherence.dirty_interventions", d.DirtyInterventions)
		add("coherence.clean_interventions", d.CleanInterventions)
		add("coherence.speculative_hits", d.SpeculativeHits)
		add("coherence.migratory_transfers", d.MigratoryTransfers)
		add("coherence.invalidations", d.InvalidationsSent)
		add("coherence.writebacks", d.Writebacks)
		queueWait += d.QueueWait
		totalLatency += d.TotalLatency
		add("db.pins", st.Sess.Pins)
		add("db.bufmgr_acquires", st.Sess.BufMgrAcquires)
		add("db.bufmgr_contended", st.Sess.BufMgrContended)
		add("db.relation_acquires", st.Sess.RelationAcquires)
		runMS = append(runMS, ms(rec.spans[run.span].End-rec.spans[run.span].Start))
		v["workload.warmup_ms"] += float64(st.WarmupHostNS) / 1e6
		v["workload.measured_ms"] += float64(st.MeasuredHostNS) / 1e6
		v["workload.other_ms"] += ms(self[run.span])
	}
	v["workload.runs"] = float64(len(rec.runs))
	v["workload.run_ms_p50"] = quantile(runMS, 0.5)
	v["workload.run_ms_p90"] = quantile(runMS, 0.9)
	add("db.spin_iterations", ct.SpinIterations)
	add("db.lock_backoffs", ct.LockBackoffs)
	add("cache.l1_misses", ct.L1DMisses)
	add("cache.l2_misses", ct.L2DMisses)
	add("cache.upgrades", ct.Upgrades)
	if refs := ct.Loads + ct.Stores; refs > 0 {
		v["cache.l1_hit_ratio"] = 1 - float64(ct.L1DMisses)/float64(refs)
	}
	if l1OfTwoLevel > 0 {
		v["cache.l2_hit_ratio"] = 1 - float64(ct.L2DMisses)/float64(l1OfTwoLevel)
	}
	add("interconnect.mem_requests", ct.MemRequests)
	add("interconnect.dirty_3hop", ct.Dirty3HopMisses)
	if ct.MemRequests > 0 {
		v["interconnect.avg_latency_cyc"] = float64(ct.MemLatencyCycles) / float64(ct.MemRequests)
	}
	if totalLatency > 0 {
		v["interconnect.queue_wait_frac"] = float64(queueWait) / float64(totalLatency)
	}
	if ct.Instructions > 0 {
		v["obs.detailed_instr_frac"] = float64(detailed) / float64(ct.Instructions)
	}
}

// nominalProc is a DBMS process with no memory model underneath: it counts
// each reference, records it when record is set, and advances a nominal
// clock as trace's capture process does. The clock must advance:
// SpinLock.Acquire retries until the process's time leaves the previous
// holder's hold window, so a frozen clock never returns.
type nominalProc struct {
	clock, refs uint64
	record      bool
	stream      []ref
}

// ref is one recorded memory reference.
type ref struct {
	addr  memsys.Addr
	size  int32
	write bool
}

func (p *nominalProc) Load(a memsys.Addr, size int)  { p.note(a, size, false) }
func (p *nominalProc) Store(a memsys.Addr, size int) { p.note(a, size, true) }
func (p *nominalProc) Work(n uint64)                 { p.clock += n }
func (p *nominalProc) Spin()                         { p.clock += 4 }
func (p *nominalProc) Backoff()                      { p.clock += 100_000 }
func (p *nominalProc) Now() uint64                   { return p.clock }

func (p *nominalProc) note(a memsys.Addr, size int, write bool) {
	p.refs++
	p.clock += 2
	if p.record {
		p.stream = append(p.stream, ref{a, int32(size), write})
	}
}

// probeQueries splits each query's host time between the layers: the
// reference implementation, the DB engine with no memory model, a replay of
// the engine's reference stream through the machine model, and a 1-process
// Origin run of the whole simulator, whose measured-region time less the
// engine and replay times is the simos/sim residual. Each is the median of
// probeReps timings.
func probeQueries(in *instance, rec *recorder, v map[string]float64) error {
	p, data := in.preset, in.data
	if data == nil {
		var genMS float64
		data, genMS = generate(p)
		v["tpch.generate_ms"] = genMS
	}
	var loadMS []float64
	var refs, allocs, accesses uint64
	var engineNS, replay1NS, replay8NS float64
	for _, q := range tpch.AllQueries {
		var refMS []float64
		var want uint64
		for i := 0; i < probeReps; i++ {
			t := time.Now()
			want = tpch.Ref(q, data).Digest()
			refMS = append(refMS, ms(time.Since(t)))
		}

		// Every run gets a fresh database, as every simulated run does: hint
		// bits set by one run change the next one's references. The last
		// run records its reference stream for the replay.
		var runMS []float64
		var stream []ref
		var shared uint64
		for i := 0; i <= probeReps; i++ {
			t := time.Now()
			db := engine.Open(engine.Config{PoolPages: tpch.PoolPagesFor(data)})
			tpch.Load(db, data)
			loadMS = append(loadMS, ms(time.Since(t)))
			proc := &nominalProc{record: i == probeReps}
			sess := db.NewSession(proc, 0)
			m0 := readRuntime().mallocs
			start := time.Now()
			res := tpch.Run(q, sess)
			end := time.Now()
			var err error
			if res.Digest() != want {
				err = fmt.Errorf("engine returned a wrong %v answer", q)
			}
			if proc.record {
				rec.op(fmt.Sprintf("db %v recording", q), start, end, err)
				stream, shared = proc.stream, db.SharedBytes
				continue
			}
			rec.op(fmt.Sprintf("db %v", q), start, end, err)
			allocs += uint64(readRuntime().mallocs - m0)
			runMS = append(runMS, ms(end.Sub(start)))
			refs = proc.refs
		}
		v["db.refs"] += float64(refs)

		spec := machine.OriginSpec(32, p.MemScale)
		spec.SharedLimit = shared
		var replay1MS, replay8MS, measuredMS []float64
		for i := 0; i < probeReps; i++ {
			replay1MS = append(replay1MS, ms(replay(rec, q, spec, stream, 1)))
			replay8MS = append(replay8MS, ms(replay(rec, q, spec, stream, 8)))
			st, err := rec.runner(context.Background(), workload.Options{
				Spec: spec, Data: data, Query: q, Processes: 1, OSTimeScale: p.MemScale,
			})
			if err != nil {
				return fmt.Errorf("probe run %v: %w", q, err)
			}
			measuredMS = append(measuredMS, float64(st.MeasuredHostNS)/1e6)
		}
		accesses += uint64(len(stream))

		dbMS, r1, measured := median(runMS), median(replay1MS), median(measuredMS)
		name := strings.ToLower(q.String())
		v["tpch.ref_"+name+"_ms"] = median(refMS)
		v["db."+name+"_ms"] = dbMS
		v["machine.replay_"+name+"_ms"] = r1
		v["simos.measured_"+name+"_ms"] = measured
		v["simos.residual_"+name+"_ms"] = measured - dbMS - r1
		engineNS += dbMS * 1e6
		replay1NS += r1 * 1e6
		replay8NS += median(replay8MS) * 1e6
	}
	v["db.load_ms"] = median(loadMS)
	v["db.ns_per_ref"] = engineNS / v["db.refs"]
	v["db.allocs_per_query"] = float64(allocs) / float64(probeReps*len(tpch.AllQueries))
	v["machine.ns_per_access_1cpu"] = replay1NS / float64(accesses)
	v["machine.ns_per_access_8cpu"] = replay8NS / float64(accesses)
	return nil
}

// replay runs a recorded stream through a fresh machine. With several CPUs
// the stream is dealt out in 1000-reference chunks, round robin, so the
// CPUs share lines and the coherence paths run.
func replay(rec *recorder, q tpch.QueryID, spec machine.Spec, stream []ref, cpus int) time.Duration {
	m := machine.New(spec)
	now := make([]uint64, cpus)
	start := time.Now()
	for i, r := range stream {
		c := (i / 1000) % cpus
		now[c] += m.Access(c, r.addr, int(r.size), r.write, now[c])
	}
	end := time.Now()
	rec.op(fmt.Sprintf("replay %v %dcpu", q, cpus), start, end, nil)
	return end.Sub(start)
}

// probeHandoff times process handoffs in the simulation kernel: 8 processes
// each advance by a whole quantum per step, so every step yields.
func probeHandoff(rec *recorder, v map[string]float64) error {
	const procs, steps = 8, 2000
	k := sim.NewKernel(0)
	for i := 0; i < procs; i++ {
		k.Spawn(func(p *sim.Proc) {
			for j := 0; j < steps; j++ {
				p.Advance(k.Quantum())
			}
		})
	}
	start := time.Now()
	err := k.Run()
	end := time.Now()
	rec.op("sim handoff", start, end, err)
	v["sim.handoff_ns"] = float64(end.Sub(start).Nanoseconds()) / (procs * steps)
	return err
}

// probeService times one cached /v1/measure request three ways: the handler
// alone into a recorder, the same request over loopback HTTP, and the result
// store's hit path alone. Workloads other than api-hit start a tiny server.
func probeService(c runConfig, in *instance, rec *recorder, v map[string]float64) error {
	p := c.apiPreset()
	srv, path := in.srv, in.cell
	if srv == nil {
		data, _ := generate(p)
		s, err := service.New(service.Config{Preset: p, Data: data, Store: rescache.NewMemory(), Workers: c.workers})
		if err != nil {
			return err
		}
		defer s.Close()
		srv, path = s, apiCells()[0]
	}
	h := srv.Handler()
	serve := func() error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, w.Code)
		}
		return nil
	}
	if err := serve(); err != nil { // simulates the cell on a new server
		return err
	}
	loop := func(name string, call func() error) (p50us float64) {
		lat := make([]float64, 0, c.probeRequests)
		var firstErr error
		start := time.Now()
		for i := 0; i < c.probeRequests; i++ {
			t := time.Now()
			if err := call(); err != nil && firstErr == nil {
				firstErr = err
			}
			lat = append(lat, float64(time.Since(t))/1e3)
		}
		rec.op(fmt.Sprintf("%s x%d", name, c.probeRequests), start, time.Now(), firstErr)
		return median(lat)
	}
	handler := loop("service handler", serve)

	ts := httptest.NewServer(h)
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	loopback := loop("loopback GET", func() error {
		_, err := get(client, ts.URL+path)
		return err
	})
	v["service.handler_us_p50"] = handler
	v["net.overhead_us"] = loopback - handler

	store := rescache.NewMemory()
	dig := service.MeasureDigest(p, tpch.Q6, 1, workload.Options{Spec: machine.VClassSpec(16, p.MemScale)})
	if err := store.Put(rescache.NSMeasurement, dig, []byte("{}")); err != nil {
		return err
	}
	miss := func(context.Context) ([]byte, error) { return nil, errors.New("unexpected cache miss") }
	const hits = 20000
	var firstErr error
	start := time.Now()
	for i := 0; i < hits; i++ {
		if _, _, err := store.Do(context.Background(), rescache.NSMeasurement, dig, miss); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	end := time.Now()
	rec.op(fmt.Sprintf("rescache hit x%d", hits), start, end, firstErr)
	v["rescache.do_hit_ns"] = float64(end.Sub(start).Nanoseconds()) / hits
	return nil
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, mallocs, gcCycles, cpuGC, cpuTotal float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{f(0), f(1), f(2), f(3), f(4)}
}
