package telemetry

import (
	"context"
	"sync"
	"time"
)

// Phase names of the serving path's time taxonomy. A request's wall time
// decomposes into waiting for a worker slot (PhaseQueue), looking up the
// result cache tiers (PhaseCacheMem, PhaseCacheDisk), simulating
// (PhaseCompute) and writing the response (PhaseEncode) — the same
// end-to-end attribution question the paper asks of a DSS query, asked of
// our own service. The names appear as the "phase" label of
// dssmem_phase_seconds and in the request log line.
const (
	PhaseQueue     = "queue"
	PhaseCacheMem  = "cache_mem"
	PhaseCacheDisk = "cache_disk"
	PhaseCompute   = "compute"
	PhaseEncode    = "encode"
)

// Request is one API request's per-phase time breakdown. A nil *Request is
// valid and every method no-ops, so instrumented layers (rescache, workload)
// record phases unconditionally and pay nothing when no request is in flight.
type Request struct {
	mu     sync.Mutex
	phases map[string]float64 // seconds charged, by phase name
	order  []string           // phase names in first-charge order
}

// Phase is one phase of a request with the total time charged to it (a
// sweep request charges one compute per simulated cell).
type Phase struct {
	Name    string
	Seconds float64
}

// NewRequest starts recording a request.
func NewRequest() *Request {
	return &Request{phases: make(map[string]float64)}
}

// AddPhase charges d to the named phase.
func (q *Request) AddPhase(name string, d time.Duration) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if _, ok := q.phases[name]; !ok {
		q.order = append(q.order, name)
	}
	q.phases[name] += d.Seconds()
	q.mu.Unlock()
}

// StartPhase opens the named phase and returns its closer:
//
//	defer req.StartPhase(telemetry.PhaseEncode)()
func (q *Request) StartPhase(name string) func() {
	if q == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { q.AddPhase(name, time.Since(begin)) }
}

// Phases returns the aggregated phase breakdown in first-charge order.
func (q *Request) Phases() []Phase {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Phase, 0, len(q.order))
	for _, name := range q.order {
		out = append(out, Phase{Name: name, Seconds: q.phases[name]})
	}
	return out
}

// ---- context plumbing ----

type ctxKey struct{}

// NewContext attaches q to ctx; downstream layers recover it with
// FromContext.
func NewContext(ctx context.Context, q *Request) context.Context {
	return context.WithValue(ctx, ctxKey{}, q)
}

// FromContext returns the request being served, or nil (CLI runs, tests,
// background work). Safe on a nil context.
func FromContext(ctx context.Context) *Request {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(ctxKey{}).(*Request)
	return q
}
