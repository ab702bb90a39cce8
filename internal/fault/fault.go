// Package fault is the deterministic fault-injection layer behind the
// daemon's robustness tests. An Injector holds per-site firing probabilities
// over a seeded RNG, so a chaos run is reproducible from its seed. The disk
// sites are named here and fire through FS, a filesystem the result store
// opens over (rescache.OpenFS) exactly as it opens over the real one; tests
// draw run faults from their own sites through the service's run seam. No
// production binary imports this package.
//
// A nil *Injector is valid and injects nothing.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Site names one injectable failure point.
type Site string

// The disk sites, exercised by the FS wrapper around the result store.
const (
	DiskReadErr     Site = "disk.read.err"     // ReadFile fails with a non-NotExist error
	DiskReadCorrupt Site = "disk.read.corrupt" // ReadFile succeeds but a byte is flipped
	DiskWriteErr    Site = "disk.write.err"    // WriteFile/Rename fails
	DiskWriteTorn   Site = "disk.write.torn"   // WriteFile persists a truncated prefix yet reports success
)

// ErrInjected is the sentinel wrapped by every injected error, so tests and
// callers can tell deliberate faults from organic ones with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Injector decides, site by site, whether a fault fires. Safe for concurrent
// use. The zero probability for every site means the injector is inert.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	probs map[Site]float64
	fired map[Site]uint64
}

// New returns an injector whose decisions are a pure function of seed and
// the call sequence.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		probs: make(map[Site]float64),
		fired: make(map[Site]uint64),
	}
}

// Set makes site fire with probability p (clamped to [0, 1]).
func (in *Injector) Set(site Site, p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	in.mu.Lock()
	in.probs[site] = p
	in.mu.Unlock()
}

// DisableAll zeroes every site's probability; fired counts are kept.
func (in *Injector) DisableAll() {
	in.mu.Lock()
	for s := range in.probs {
		in.probs[s] = 0
	}
	in.mu.Unlock()
}

// Hit reports whether site fires this time, advancing the RNG and the fired
// count when it does. Nil-safe.
func (in *Injector) Hit(site Site) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.probs[site]
	if p <= 0 {
		return false
	}
	if in.rng.Float64() >= p {
		return false
	}
	in.fired[site]++
	return true
}

// Err returns an injected error for site (or nil if it does not fire). op
// names the failed operation for the error message.
func (in *Injector) Err(site Site, op string) error {
	if !in.Hit(site) {
		return nil
	}
	return fmt.Errorf("%w: %s at %s", ErrInjected, op, site)
}

// Corrupt possibly flips one byte of b (a copy; b is never modified in
// place) when site fires. Empty input is returned unchanged.
func (in *Injector) Corrupt(site Site, b []byte) []byte {
	if len(b) == 0 || !in.Hit(site) {
		return b
	}
	in.mu.Lock()
	i := in.rng.Intn(len(b))
	in.mu.Unlock()
	c := make([]byte, len(b))
	copy(c, b)
	c[i] ^= 0xff
	return c
}

// Fired snapshots per-site firing counts.
func (in *Injector) Fired() map[Site]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]uint64, len(in.fired))
	for s, n := range in.fired {
		out[s] = n
	}
	return out
}
