// Package fault is the deterministic fault-injection layer behind the
// daemon's robustness tests. An Injector holds per-site firing probabilities
// over a seeded RNG, so a chaos run is reproducible from its seed; every
// server-side failure path — disk I/O errors, corrupted or torn cache bytes,
// latency stalls, compute panics, hung simulations — has a named site here,
// and the hardened code paths (internal/rescache, internal/service) consume
// faults through the same interfaces production uses, so the tested paths
// are the shipped paths.
//
// A nil *Injector is valid and injects nothing; production code calls the
// hook methods unconditionally.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Site names one injectable failure point.
type Site string

// The named sites. Disk sites are exercised by the FS wrapper around the
// result store; compute sites by the service's gated runner; SimStall by the
// simulation kernel's quantum-boundary hook.
const (
	DiskReadErr     Site = "disk.read.err"     // ReadFile fails with a non-NotExist error
	DiskReadCorrupt Site = "disk.read.corrupt" // ReadFile succeeds but a byte is flipped
	DiskWriteErr    Site = "disk.write.err"    // WriteFile/Rename fails
	DiskWriteTorn   Site = "disk.write.torn"   // WriteFile persists a truncated prefix yet reports success
	SimStall        Site = "sim.stall"         // a scheduling quantum stalls for StallFor
	ComputePanic    Site = "compute.panic"     // the run goroutine panics
	ComputeHang     Site = "compute.hang"      // the run wedges, ignoring cancellation
)

// Sites lists every site in stable order: the vocabulary of dssmemd -faults.
func Sites() []Site {
	return []Site{
		DiskReadErr, DiskReadCorrupt, DiskWriteErr, DiskWriteTorn,
		SimStall, ComputePanic, ComputeHang,
	}
}

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
	stall time.Duration
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

// SetStall sets the duration one SimStall firing blocks for.
func (in *Injector) SetStall(d time.Duration) {
	in.mu.Lock()
	in.stall = d
	in.mu.Unlock()
}

// StallFor reports the configured stall duration.
func (in *Injector) StallFor() time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stall
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

// String renders the non-zero configuration, for logs.
func (in *Injector) String() string {
	if in == nil {
		return "fault: none"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var parts []string
	for s, p := range in.probs {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", s, p))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "fault: none"
	}
	return "fault: " + strings.Join(parts, ",")
}

// ParseSpec parses a "site=prob,site=prob" flag value (e.g.
// "disk.read.err=0.05,compute.panic=0.01") against the known sites.
func ParseSpec(spec string) (map[Site]float64, error) {
	out := make(map[Site]float64)
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	known := make(map[Site]bool, len(Sites()))
	for _, s := range Sites() {
		known[s] = true
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q (want site=prob)", part)
		}
		site := Site(strings.TrimSpace(name))
		if !known[site] {
			return nil, fmt.Errorf("fault: unknown site %q (known: %v)", site, Sites())
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("fault: bad probability %q for %s", val, site)
		}
		out[site] = p
	}
	return out, nil
}

// Configure applies a parsed spec to an injector.
func (in *Injector) Configure(probs map[Site]float64) {
	for s, p := range probs {
		in.Set(s, p)
	}
}
