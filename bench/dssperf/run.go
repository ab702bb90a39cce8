package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"dssmem/internal/experiments"
)

// runConfig is one invocation's settings. The command line sets the first
// five fields; the rest size the run and are smaller only in tests.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	traceFile string

	tiny             bool    // every workload at the tiny preset
	setupReps        int     // set-ups timed at least; the last one is kept
	setupSeconds     float64 // set-ups repeat until they add up to this
	minPasses        int     // timed passes at least
	minOps           int     // operations over the timed passes at least
	workers          int     // simulation parallelism and HTTP clients
	oltpTransactions int     // per OLTP process
	apiPassRequests  int     // requests per api-hit pass
	probeRequests    int     // requests per service-probe loop
}

// defaultConfig sizes a run for the reference host (2 cores, 15 s of timed
// passes per workload; see bench/README.md).
func defaultConfig() runConfig {
	return runConfig{
		seed:         experiments.Small.Seed,
		seconds:      15,
		setupReps:    5,
		setupSeconds: 0.5,
		// Five passes give quartiles; a hundred operations put ten in the
		// slowest tenth that op_ms_tail averages.
		minPasses:        5,
		minOps:           100,
		workers:          min(2, runtime.NumCPU()),
		oltpTransactions: 400,
		apiPassRequests:  8192,
		probeRequests:    2000,
	}
}

// simPreset is the preset of the simulation workloads, with the run's seed.
func (c runConfig) simPreset() experiments.Preset {
	p := experiments.Small
	if c.tiny {
		p = experiments.Tiny
	}
	p.Seed = c.seed
	return p
}

// apiPreset is api-hit's preset: tiny, so warming its cells is quick.
func (c runConfig) apiPreset() experiments.Preset {
	p := experiments.Tiny
	p.Seed = c.seed
	return p
}

// maxSetupReps bounds the set-up repetitions.
const maxSetupReps = 50

// endToEnd are the end-to-end metrics every workload reports with tracing
// off, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"op_ms_mean", "ms"},
	{"op_ms_tail", "ms"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// workloadReport is everything one workload run measured.
type workloadReport struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Passes    int                `json:"passes"`
	Digest    string             `json:"digest"`
	Pinned    string             `json:"pinned,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Info are end-to-end numbers derived from Metrics or specific to the
	// workload (simulated throughput, tail latency with its percentile).
	Info   map[string]float64 `json:"info"`
	Layers map[string]value   `json:"layers,omitempty"`
}

// runWorkload sets the workload up, runs a discarded warm-up pass and then
// timed passes, and under trace a traced pass and the layer probes.
func runWorkload(c runConfig) (*workloadReport, error) {
	def, err := workloadNamed(c.workload)
	if err != nil {
		return nil, err
	}
	// Every timing is scaled to the reference host's speed by calibrate,
	// timed before the set-ups and after them and after every pass: a pass
	// (or the set-ups) is scaled by the mean of the calibrations around it.
	cal := calibrate(c.workers).Seconds()
	var cals []float64
	scale := func(before, after float64) float64 { return calibRef.Seconds() / ((before + after) / 2) }

	var setupS, generateMS []float64
	var in *instance
	var setupTotal float64
	// A set-up of a few milliseconds is repeated until the repetitions add
	// up to a measurable time, so that its median is steady.
	for i := 0; i < c.setupReps || (setupTotal < c.setupSeconds && i < maxSetupReps); i++ {
		if in != nil {
			in.close()
		}
		t := time.Now()
		if in, err = def.setup(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", c.workload, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		setupTotal += setupS[i]
		generateMS = append(generateMS, in.generateMS)
		runtime.GC() // start the next set-up, and the passes, from a clean heap
	}
	defer in.close()
	next := calibrate(c.workers).Seconds()
	cals = append(cals, cal, next)
	setupRaw := median(setupS)
	for i := range setupS {
		setupS[i] *= scale(cal, next)
	}

	r := &workloadReport{Info: map[string]float64{}}
	pass := func(rec *recorder) (wall, cpu time.Duration) {
		cpu0 := cpuTime()
		t := time.Now()
		out, err := in.pass(rec)
		wall, cpu = time.Since(t), cpuTime()-cpu0
		r.Passes++
		r.Attempted += max(1, len(rec.opsMS))
		digest := fmt.Sprintf("sha256:%x", sha256.Sum256(out))
		switch {
		case err != nil && rec.failed > 0:
			r.Failed += rec.failed
		case err == nil && r.Digest != "" && digest != r.Digest:
			err = fmt.Errorf("output %s differs from the first pass's %s", digest, r.Digest)
			fallthrough
		case err != nil:
			// The pass's output as a whole is wrong: count every one of its
			// operations as failed.
			fmt.Fprintf(os.Stderr, "dssperf: %s pass %d: %v\n", c.workload, r.Passes, err)
			r.Failed += max(1, len(rec.opsMS))
		default:
			r.Failed += rec.failed
			if r.Digest == "" {
				r.Digest = digest
			}
		}
		return wall, cpu
	}

	pass(newRecorder(false)) // warm-up: caches, the heap and lazy set-up settle
	cal = calibrate(c.workers).Seconds()
	cals = append(cals, cal)
	var walls, cpus, rawWalls []float64
	var opsByPass [][]float64
	var ops int
	var instr uint64
	timed := time.Now()
	for {
		el := time.Since(timed).Seconds()
		enough := len(walls) >= c.minPasses && ops >= c.minOps && el >= c.seconds
		// On a host too slow for minOps, stop at three times the budget.
		if enough || (len(walls) >= 1 && el >= 3*c.seconds) {
			break
		}
		rec := newRecorder(false)
		wall, cpu := pass(rec)
		next := calibrate(c.workers).Seconds()
		cals = append(cals, next)
		k := scale(cal, next)
		cal = next
		rawWalls = append(rawWalls, wall.Seconds())
		walls = append(walls, k*wall.Seconds())
		cpus = append(cpus, k*cpu.Seconds())
		for i := range rec.opsMS {
			rec.opsMS[i] *= k
		}
		opsByPass = append(opsByPass, rec.opsMS)
		ops += len(rec.opsMS)
		instr += rec.instr
	}
	rss := maxRSSMB()
	r.Metrics = map[string]summary{
		"wall_s":     summarize("s", singles(walls), median),
		"cpu_s":      summarize("s", singles(cpus), median),
		"op_ms_mean": summarize("ms", opsByPass, mean),
		"op_ms_tail": summarize("ms", opsByPass, tailMean),
		"max_rss_mb": summarize("MB", singles([]float64{rss}), median),
		"setup_s":    summarize("s", singles(setupS), median),
	}
	var total float64
	for _, w := range rawWalls {
		total += w
	}
	var pool []float64
	for _, g := range opsByPass {
		pool = append(pool, g...)
	}
	r.Info["calib_ms"] = 1e3 * median(cals)
	r.Info["wall_s_unscaled"] = median(rawWalls)
	r.Info["setup_s_unscaled"] = setupRaw
	r.Info["op_ms_p50"] = median(pool)
	r.Info["ops"] = float64(ops)
	r.Info["ops_per_s_unscaled"] = float64(ops) / total
	if instr > 0 {
		r.Info["sim_mips_unscaled"] = float64(instr) / total / 1e6
	}
	if p := tailPercentile(ops); p > 0 {
		r.Info[fmt.Sprintf("op_ms_p%g", 100*p)] = quantile(pool, p)
	}

	if c.trace {
		v, traced, err := traceRun(c, in, r, pass)
		if err != nil {
			return nil, err
		}
		v["trace_overhead_frac"] = traced.Seconds()/median(rawWalls) - 1
		v["host.calib_ms"] = r.Info["calib_ms"]
		if in.data != nil { // oltp-write's probes time their own generation
			v["tpch.generate_ms"] = median(generateMS)
		}
		r.Layers = make(map[string]value, len(layerMetrics))
		for _, m := range layerMetrics {
			r.Layers[m.name] = value{v[m.name], m.unit}
		}
	}

	if pin, ok := pins[pinKey(c.workload, in.preset)]; ok {
		r.Pinned = pin
		if pin != r.Digest {
			fmt.Fprintf(os.Stderr, "dssperf: %s output %s differs from the pinned %s\n", c.workload, r.Digest, pin)
			r.Failed = r.Attempted
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}

// pinKey names a run in the pins table: workload, preset and seed.
func pinKey(workload string, p experiments.Preset) string {
	return fmt.Sprintf("%s/%s/%d", workload, p.Name, p.Seed)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
