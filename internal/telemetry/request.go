package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names of the serving path's time taxonomy. A request's wall time
// decomposes into waiting for a worker slot (PhaseQueue), looking up the
// result cache tiers (PhaseCacheMem, PhaseCacheDisk), simulating
// (PhaseCompute) and writing the response (PhaseEncode) — the same
// end-to-end attribution question the paper asks of a DSS query, asked of
// our own service. The names appear as the "phase" label of
// dssmem_phase_seconds and in /debug/requests.
const (
	PhaseQueue     = "queue"
	PhaseCacheMem  = "cache_mem"
	PhaseCacheDisk = "cache_disk"
	PhaseCompute   = "compute"
	PhaseEncode    = "encode"
)

var idFallback atomic.Uint64

// NewID mints a 16-hex-char request ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; degrade to a
		// process-unique counter rather than failing a request over an ID.
		n := idFallback.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// CleanID validates an inbound request ID (X-Request-ID is caller-supplied
// and ends up in logs, metrics labels and trace files): at most 64
// characters, each alphanumeric or one of "._-". Anything else returns "",
// telling the caller to mint a fresh ID.
func CleanID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}

// Request is one tracked API request: its identity, timing, and per-phase
// breakdown. A nil *Request is valid and every method no-ops, so
// instrumented layers (rescache, workload) record phases unconditionally and
// pay nothing when no request is in flight.
type Request struct {
	ID       string
	Endpoint string
	Attempt  int // client's X-Request-Attempt (1 = first try)
	Start    time.Time

	mu      sync.Mutex
	digest  string
	cache   string
	status  int
	outcome string
	done    bool
	end     time.Time
	phases  map[string]*phaseAgg
	order   []string
}

type phaseAgg struct {
	count   uint64
	seconds float64
}

// Phase is one aggregated phase of a request (a sweep request runs many
// measurements, so counts above one are normal).
type Phase struct {
	Name    string
	Count   uint64
	Seconds float64
}

// NewRequest starts tracking a request.
func NewRequest(id, endpoint string) *Request {
	return &Request{ID: id, Endpoint: endpoint, Attempt: 1, Start: time.Now(),
		phases: make(map[string]*phaseAgg)}
}

// AddPhase charges d to the named phase.
func (q *Request) AddPhase(name string, d time.Duration) {
	if q == nil {
		return
	}
	q.mu.Lock()
	a := q.phases[name]
	if a == nil {
		a = &phaseAgg{}
		q.phases[name] = a
		q.order = append(q.order, name)
	}
	a.count++
	a.seconds += d.Seconds()
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

// SetDigest records the result's content address.
func (q *Request) SetDigest(d string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.digest = d
	q.mu.Unlock()
}

// SetCache records the cache outcome ("hit" or "miss").
func (q *Request) SetCache(c string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.cache = c
	q.mu.Unlock()
}

// Finish marks the request complete with its HTTP status and outcome word.
func (q *Request) Finish(status int, outcome string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.status = status
	q.outcome = outcome
	q.done = true
	q.end = time.Now()
	q.mu.Unlock()
}

// Duration is wall time so far (or total, once finished).
func (q *Request) Duration() time.Duration {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return q.end.Sub(q.Start)
	}
	return time.Since(q.Start)
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
		a := q.phases[name]
		out = append(out, Phase{Name: name, Count: a.count, Seconds: a.seconds})
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
