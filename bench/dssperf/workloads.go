package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/experiments"
	"dssmem/internal/machine"
	"dssmem/internal/oltp"
	"dssmem/internal/rescache"
	"dssmem/internal/service"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// workloadDef is one benchmark workload. setup builds everything the timed
// passes reuse; the benchmark repeats it and reports the median as setup_s.
type workloadDef struct {
	name, why string
	setup     func(runConfig) (*instance, error)
}

// instance is one workload after set-up.
type instance struct {
	// preset is the workload's preset; data is its TPC-H database (nil for
	// oltp-write) and generateMS the host time its generation took.
	preset     experiments.Preset
	data       *tpch.Data
	generateMS float64
	// pass runs one unit of work, checks it, and returns its output bytes;
	// the benchmark requires every pass of a run to return the same bytes.
	pass func(*recorder) ([]byte, error)
	// store is a result store that outlives passes (api-hit's server store).
	store *rescache.Store
	// srv and cell are api-hit's server and one of its warmed request paths,
	// which the service probe reuses.
	srv   *service.Server
	cell  string
	close func()
}

// workloads are the benchmark's workloads; BENCHMARK.json lists the same
// names and reasons.
var workloads = []workloadDef{
	{"fig5-exact", "Figure 5 exactly simulated: Q21 index probes, the machine model and simos all carry weight", setupFigure(0)},
	{"scan-q6", "Q6 scan swept on both machines: no index probes; V-Class single-level cache, crossbar and migratory path", setupScan},
	{"fig5-sampled", "Figure 5 with SMARTS sampling: the memory model is fast-forwarded, so engine and warm-up costs dominate", setupFigure(experiments.DefaultSamplingQuanta)},
	{"oltp-write", "OLTP writes under relation and row locks: stores and ownership transfers instead of read-mostly scans", setupOLTP},
	{"api-hit", "cached /v1/measure cells over loopback HTTP: service, rescache and telemetry work, no simulation", setupAPI},
}

func workloadNamed(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// generate builds the TPC-H database for a preset and times it.
func generate(p experiments.Preset) (*tpch.Data, float64) {
	t := time.Now()
	d := tpch.Generate(p.SF, p.Seed)
	return d, ms(time.Since(t))
}

// newEnv is a fresh experiment environment over data whose every simulation
// the recorder sees. A fresh environment has an empty result cache, so a
// pass simulates every cell.
func newEnv(c runConfig, data *tpch.Data, rec *recorder) *experiments.Env {
	env := experiments.NewEnvWith(c.simPreset(), data)
	env.Parallelism = c.workers
	env.Runner = rec.runner
	rec.store = env.Results
	return env
}

// setupFigure is Figure 5 at the workload preset, exact or sampled.
func setupFigure(sampleQuanta int) func(runConfig) (*instance, error) {
	return func(c runConfig) (*instance, error) {
		p := c.simPreset()
		data, genMS := generate(p)
		in := &instance{preset: p, data: data, generateMS: genMS, close: func() {}}
		var exact float64 // Q6 cycles per 1M instructions at 8 procs, exactly simulated
		in.pass = func(rec *recorder) ([]byte, error) {
			env := newEnv(c, data, rec)
			env.SampleQuanta = sampleQuanta
			res, err := experiments.RunFigure(env, 5, nil)
			if err != nil {
				return nil, err
			}
			if sampleQuanta > 1 {
				// The exact reference is computed on the first pass, which
				// is the discarded warm-up pass, outside the recorder.
				if exact == 0 {
					ref := experiments.NewEnvWith(env.Preset, data)
					ref.Parallelism = c.workers
					m, err := ref.Measure(ref.Origin(), tpch.Q6, 8)
					if err != nil {
						return nil, fmt.Errorf("exact reference: %w", err)
					}
					exact = m.CyclesPerMInstr
				}
				got, err := q6At8(res.Series)
				if err != nil {
					return nil, err
				}
				rec.sampleRelErr = math.Abs(got-exact) / exact
				if rec.sampleRelErr > experiments.DefaultSamplingTolerance {
					return nil, fmt.Errorf("sampled Q6 cyc/Minstr@8p %.0f is %.1f%% from exact %.0f (tolerance %.0f%%)",
						got, 100*rec.sampleRelErr, exact, 100*experiments.DefaultSamplingTolerance)
				}
			}
			return json.Marshal(res)
		}
		return in, nil
	}
}

// q6At8 returns Q6's cycles per 1M instructions at 8 processes.
func q6At8(series []core.Series) (float64, error) {
	for _, s := range series {
		if p := s.At(8); s.Query == tpch.Q6.String() && p != nil {
			return p.CyclesPerMInstr, nil
		}
	}
	return 0, fmt.Errorf("figure has no Q6 point at 8 processes")
}

// setupScan is Q6 swept over experiments.ProcCounts on both machines.
func setupScan(c runConfig) (*instance, error) {
	p := c.simPreset()
	data, genMS := generate(p)
	in := &instance{preset: p, data: data, generateMS: genMS, close: func() {}}
	in.pass = func(rec *recorder) ([]byte, error) {
		env := newEnv(c, data, rec)
		var out []core.Series
		for _, spec := range []machine.Spec{env.VClass(), env.Origin()} {
			s, err := env.Sweep(spec.Name, spec, tpch.Q6, workload.Options{})
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return json.Marshal(out)
	}
	return in, nil
}

// oltpProcs is the process count of every OLTP run: enough writers that
// relation locks contend.
const oltpProcs = 8

// setupOLTP is the OLTP mix on both machines under relation and row locks.
// Each run loads its own database, so set-up has nothing to build for the
// passes; it times what every run repeats, one database load and the two
// machines, so that work moved out of the runs shows as set-up.
func setupOLTP(c runConfig) (*instance, error) {
	p := c.simPreset()
	cfg := oltp.DefaultConfig()
	stream := c.seed ^ 0x6f6c7470 // "oltp": the OLTP stream differs from the TPC-H one
	cfg.Seed = splitmix(&stream)
	cfg.Transactions = c.oltpTransactions
	vclass := machine.VClassSpec(16, p.MemScale)
	origin := machine.OriginSpec(32, p.MemScale)
	db := oltp.Load(cfg)
	for _, spec := range []machine.Spec{vclass, origin} {
		spec.SharedLimit = db.Engine().SharedBytes
		machine.New(spec)
	}

	type runCfg struct {
		spec machine.Spec
		cfg  oltp.Config
	}
	var runs []runCfg
	for _, spec := range []machine.Spec{vclass, origin} {
		for _, g := range []oltp.Granularity{oltp.RelationLocks, oltp.RowLocks} {
			rc := runCfg{spec, cfg}
			rc.cfg.Granularity = g
			runs = append(runs, rc)
		}
	}
	in := &instance{preset: p, close: func() {}}
	in.pass = func(rec *recorder) ([]byte, error) {
		out := make([]*oltp.Stats, len(runs))
		errs := make([]error, len(runs))
		sem := make(chan struct{}, c.workers)
		var wg sync.WaitGroup
		for i, rc := range runs {
			i, rc := i, rc
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				start := time.Now()
				st, err := oltp.Run(rc.spec, rc.cfg, oltpProcs, p.MemScale)
				if err == nil && st.Transactions != oltpProcs*rc.cfg.Transactions {
					err = fmt.Errorf("ran %d transactions, want %d", st.Transactions, oltpProcs*rc.cfg.Transactions)
				}
				rec.op(fmt.Sprintf("oltp %s %v p%d", rc.spec.Name, rc.cfg.Granularity, oltpProcs), start, time.Now(), err)
				if err == nil {
					rec.addOLTP(st)
				}
				out[i], errs[i] = st, err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return json.Marshal(out)
	}
	return in, nil
}

// apiCells are the /v1/measure requests api-hit warms and then replays.
func apiCells() []string {
	var cells []string
	for _, m := range []string{"vclass", "origin"} {
		for _, q := range tpch.AllQueries {
			for _, n := range []int{1, 2, 4} {
				cells = append(cells, fmt.Sprintf("/v1/measure?machine=%s&query=%v&procs=%d", m, q, n))
			}
		}
	}
	return cells
}

// setupAPI starts the service on loopback and warms every cell. Timed passes
// are closed loops: each of `workers` keep-alive clients sends its next
// request when the last one has answered, in an order drawn from the seed.
// Every response must be a 200 whose body is byte-identical to the cell's
// warmed body.
func setupAPI(c runConfig) (*instance, error) {
	p := c.apiPreset()
	data, genMS := generate(p)
	store := rescache.NewMemory()
	srv, err := service.New(service.Config{Preset: p, Data: data, Store: store, Workers: c.workers, EnvParallelism: c.workers})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: c.workers}
	client := &http.Client{Transport: tr}
	in := &instance{preset: p, data: data, generateMS: genMS, store: store, srv: srv, close: func() {
		tr.CloseIdleConnections()
		ts.Close()
		srv.Close()
	}}

	cells := apiCells()
	in.cell = cells[0]
	bodies := make([][]byte, len(cells))
	for i, path := range cells {
		// The first request simulates the cell; the second is a cache hit,
		// whose body every timed request must reproduce.
		for try := 0; try < 2; try++ {
			if bodies[i], err = get(client, ts.URL+path); err != nil {
				in.close()
				return nil, err
			}
		}
	}
	want := bytes.Join(bodies, nil)

	next := make([]uint64, c.workers) // per-client request-order streams
	for i := range next {
		next[i] = c.seed ^ uint64(i+1)<<32
	}
	type result struct {
		cell       int
		start, end time.Time
		err        error
	}
	in.pass = func(rec *recorder) ([]byte, error) {
		results := make([][]result, c.workers)
		var wg sync.WaitGroup
		for w := 0; w < c.workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < c.apiPassRequests/c.workers; i++ {
					cell := int(splitmix(&next[w]) % uint64(len(cells)))
					start := time.Now()
					body, err := get(client, ts.URL+cells[cell])
					if err == nil && !bytes.Equal(body, bodies[cell]) {
						err = fmt.Errorf("body differs from the warmed body")
					}
					results[w] = append(results[w], result{cell, start, time.Now(), err})
				}
			}()
		}
		wg.Wait()
		var firstErr error
		for _, rs := range results {
			for _, r := range rs {
				rec.op("GET "+cells[r.cell], r.start, r.end, r.err)
				if firstErr == nil {
					firstErr = r.err
				}
			}
		}
		return want, firstErr
	}
	return in, nil
}

// get fetches url and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// splitmix advances a splitmix64 stream and returns its next value.
func splitmix(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	x := *state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
