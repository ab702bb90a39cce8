package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"dssmem/internal/oltp"
	"dssmem/internal/rescache"
	"dssmem/internal/workload"
)

// recorder collects what one pass did: the latency and outcome of every
// operation, and the simulated instructions retired. A traced recorder also
// keeps a span per operation and the statistics of every simulation run.
// Methods are safe for concurrent use: a pass runs up to `workers`
// operations at once.
type recorder struct {
	traced bool
	origin time.Time

	mu     sync.Mutex
	root   int // parent of the spans recorded next (-1 when untraced)
	opsMS  []float64
	opSum  time.Duration
	failed int
	instr  uint64
	runs   []runRecord
	oltps  []*oltp.Stats
	spans  []span

	// store is the pass's result store, when it has one.
	store *rescache.Store
	// sampleRelErr is the sampled pass's error against the exact reference.
	sampleRelErr float64
}

// runRecord is one simulation run of a traced recorder and its span.
type runRecord struct {
	st   *workload.Stats
	span int
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, origin: time.Now(), root: -1}
}

// open starts a root span and makes it the parent of what is recorded next;
// the returned function ends it.
func (r *recorder) open(name string) func() {
	if !r.traced {
		return func() {}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Since(r.origin)
	id := r.addSpanLocked(name, -1, now, now)
	r.root = id
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans[id].End = time.Since(r.origin)
	}
}

func (r *recorder) addSpanLocked(name string, parent int, start, end time.Duration) int {
	if !r.traced {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: start, End: end})
	return len(r.spans) - 1
}

// op records one finished operation.
func (r *recorder) op(name string, start, end time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opLocked(name, start, end, err)
}

// opLocked records an operation and returns its span ID (-1 untraced).
func (r *recorder) opLocked(name string, start, end time.Time, err error) int {
	d := end.Sub(start)
	r.opsMS = append(r.opsMS, ms(d))
	r.opSum += d
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "dssperf: %s failed: %v\n", name, err)
	}
	return r.addSpanLocked(name, r.root, start.Sub(r.origin), end.Sub(r.origin))
}

// runner is an experiments.Env runner: it runs the simulation as the default
// runner does and records it. In a traced pass the run's span gets two
// children, its warm-up prelude and its measured region, laid end to end from
// the run's start using the host times workload.Stats reports (the program
// records no spans of its own).
func (r *recorder) runner(ctx context.Context, o workload.Options) (*workload.Stats, error) {
	start := time.Now()
	st, err := workload.RunContext(ctx, o)
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.opLocked(fmt.Sprintf("run %s %v p%d", o.Spec.Name, o.Query, o.Processes), start, end, err)
	if st == nil {
		return st, err
	}
	for i := range st.Procs {
		r.instr += st.Procs[i].Counters.Instructions
	}
	if r.traced {
		r.runs = append(r.runs, runRecord{st: st, span: id})
		at := start.Sub(r.origin)
		warm, meas := time.Duration(st.WarmupHostNS), time.Duration(st.MeasuredHostNS)
		r.addSpanLocked("warmup", id, at, at+warm)
		r.addSpanLocked("measured", id, at+warm, at+warm+meas)
	}
	return st, err
}

// addOLTP keeps an OLTP run's statistics for the layer table.
func (r *recorder) addOLTP(st *oltp.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traced {
		r.oltps = append(r.oltps, st)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
