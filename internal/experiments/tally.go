package experiments

import (
	"sync"

	"dssmem/internal/workload"
)

// RunTally accumulates host-side accounting across an env's simulated runs:
// how many ran, and where the host wall-clock went (warmup prelude vs
// measured region). Methods are safe for concurrent use; the zero value is
// ready.
type RunTally struct {
	mu         sync.Mutex
	runs       int
	warmupNS   int64
	measuredNS int64
}

// add folds one run's stats in. Nil-safe on both sides so call sites stay
// unconditional.
func (t *RunTally) add(st *workload.Stats) {
	if t == nil || st == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	t.warmupNS += st.WarmupHostNS
	t.measuredNS += st.MeasuredHostNS
}

// Snapshot returns the current totals.
func (t *RunTally) Snapshot() (runs int, warmupNS, measuredNS int64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runs, t.warmupNS, t.measuredNS
}
