package rescache

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"dssmem/internal/telemetry"
)

// Namespaces partition the store by result kind. They appear in disk paths,
// so they must stay filename-safe (see validNS). Measurements are the only
// kind stored: figures and sweeps are rendered from them on every request.
const NSMeasurement = "measurement"

// quarantineDir holds entries that failed read verification, preserved for
// post-mortem instead of deleted. It is not a namespace; validNS namespaces
// never collide with it in practice (the store's namespaces are fixed).
const quarantineDir = "quarantine"

var validNS = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// ErrPanicked marks a compute that panicked; the panic was recovered at the
// flight boundary and the digest stays retriable. Test with errors.Is.
var ErrPanicked = errors.New("compute panicked")

// errDegraded is the internal signal that the breaker bypassed a disk
// operation (memory-only degraded mode).
var errDegraded = errors.New("rescache: disk tier degraded")

// Stats is a snapshot of the store's counters (the daemon's /metrics source).
type Stats struct {
	MemHits      uint64 // served from the in-memory tier
	DiskHits     uint64 // served from disk (verified, then promoted to memory)
	Misses       uint64 // required a compute
	Shared       uint64 // joined an in-flight identical compute (singleflight)
	Puts         uint64 // results stored
	Aborted      uint64 // computes cancelled because every waiter left
	Panics       uint64 // computes that panicked (isolated, reported as errors)
	DiskErrors   uint64 // disk reads/writes that failed with a real I/O error
	Corrupt      uint64 // disk entries that failed checksum verification
	Quarantined  uint64 // corrupt entries moved to quarantine/
	DiskSkipped  uint64 // disk operations bypassed while the breaker was open
	BreakerTrips uint64 // closed/half-open -> open transitions
	OrphansSwept uint64 // leftover *.tmp files removed at startup
	Breaker      string // breaker position: closed | half-open | open
	Degraded     bool   // true when the disk tier is bypassed (not closed)
}

// Store is a two-tier content-addressed result store with singleflight
// deduplication. The memory tier is authoritative for the process lifetime;
// the optional disk tier persists results across restarts. Every disk entry
// is checksummed: a read that fails verification is quarantined and falls
// through to recompute — the store never serves bytes it cannot verify.
// Consecutive disk faults trip a circuit breaker into memory-only degraded
// mode with half-open probes. All methods are safe for concurrent use.
type Store struct {
	dir  string // "" = memory only
	fsys FS
	brk  *breaker

	mu      sync.Mutex
	mem     map[string][]byte
	flights map[string]*flight

	tmpSeq atomic.Uint64 // unique temp-file names within this process

	memHits     atomic.Uint64
	diskHits    atomic.Uint64
	misses      atomic.Uint64
	shared      atomic.Uint64
	puts        atomic.Uint64
	aborted     atomic.Uint64
	panics      atomic.Uint64
	diskErrors  atomic.Uint64
	corrupt     atomic.Uint64
	quarantined atomic.Uint64
	diskSkipped atomic.Uint64
	orphans     atomic.Uint64
}

// flight is one in-progress compute. Waiters hold a reference; when the last
// one leaves, the compute's context is cancelled so the simulation aborts
// instead of burning cycles for nobody.
type flight struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
	cancel  context.CancelCauseFunc
}

// Open returns a store persisting to dir (created if absent) on the real
// filesystem. An empty dir yields a memory-only store.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, OSFS{})
}

// OpenFS is Open over an explicit filesystem — the seam the fault-injection
// layer uses. Startup sweeps temp files orphaned by crashes mid-write.
func OpenFS(dir string, fsys FS) (*Store, error) {
	s := &Store{
		dir:     dir,
		fsys:    fsys,
		brk:     newBreaker(0, 0),
		mem:     make(map[string][]byte),
		flights: make(map[string]*flight),
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("rescache: %w", err)
		}
		s.sweepOrphans()
	}
	return s, nil
}

// NewMemory returns a memory-only store (tests, one-shot CLI runs).
func NewMemory() *Store {
	s, _ := Open("")
	return s
}

// sweepOrphans removes temp files a crashed process left behind; they were
// never renamed into place, so deleting them loses nothing.
func (s *Store) sweepOrphans() {
	matches, err := s.fsys.Glob(filepath.Join(s.dir, "*", "*", ".*.tmp-*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if s.fsys.Remove(m) == nil {
			s.orphans.Add(1)
		}
	}
}

// SetBreaker reconfigures the disk circuit breaker: trip after threshold
// consecutive disk faults, probe again after cooldown. Zero values keep the
// defaults. Call before serving traffic.
func (s *Store) SetBreaker(threshold int, cooldown time.Duration) {
	s.brk = newBreaker(threshold, cooldown)
}

// QuarantineDir reports where corrupt entries are preserved ("" when
// memory-only).
func (s *Store) QuarantineDir() string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, quarantineDir)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	bst, trips := s.brk.snapshot()
	return Stats{
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		Misses:       s.misses.Load(),
		Shared:       s.shared.Load(),
		Puts:         s.puts.Load(),
		Aborted:      s.aborted.Load(),
		Panics:       s.panics.Load(),
		DiskErrors:   s.diskErrors.Load(),
		Corrupt:      s.corrupt.Load(),
		Quarantined:  s.quarantined.Load(),
		DiskSkipped:  s.diskSkipped.Load(),
		BreakerTrips: trips,
		OrphansSwept: s.orphans.Load(),
		Breaker:      bst.String(),
		Degraded:     s.dir != "" && bst != BreakerClosed,
	}
}

func key(ns string, d Digest) string { return ns + "/" + string(d) }

// path maps a digest to its disk location, fanned out over a two-hex-char
// prefix directory to keep directories small.
func (s *Store) path(ns string, d Digest) string {
	prefix := "00"
	if len(d) >= 2 {
		prefix = string(d[:2])
	}
	return filepath.Join(s.dir, ns, prefix, string(d)+".json")
}

// Get returns the stored bytes for (ns, d): memory first, then disk (a
// verified disk hit is promoted to memory). The returned slice must not be
// modified.
func (s *Store) Get(ns string, d Digest) ([]byte, bool) {
	return s.getCtx(context.Background(), ns, d)
}

// getCtx is Get charging tier lookup time to the request tracked on ctx (a
// nil tracked request makes both phase hooks no-ops, so untracked callers —
// CLI runs, tests — pay only a context lookup).
func (s *Store) getCtx(ctx context.Context, ns string, d Digest) ([]byte, bool) {
	q := telemetry.FromContext(ctx)
	endMem := q.StartPhase(telemetry.PhaseCacheMem)
	s.mu.Lock()
	v, ok := s.mem[key(ns, d)]
	s.mu.Unlock()
	endMem()
	if ok {
		s.memHits.Add(1)
		return v, true
	}
	if s.dir == "" || !validNS.MatchString(ns) {
		return nil, false
	}
	endDisk := q.StartPhase(telemetry.PhaseCacheDisk)
	b, err := s.diskGet(ns, d)
	endDisk()
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	s.mem[key(ns, d)] = b
	s.mu.Unlock()
	s.diskHits.Add(1)
	return b, true
}

// diskGet reads and verifies one disk entry. The error taxonomy matters:
//
//   - fs.ErrNotExist is a cold cache — a healthy answer, not a fault;
//   - ErrCorrupt means the bytes were readable but unverifiable — the entry
//     is quarantined and the caller recomputes;
//   - anything else is a real I/O fault and feeds the circuit breaker
//     (errDegraded reports the breaker already open: disk bypassed).
func (s *Store) diskGet(ns string, d Digest) ([]byte, error) {
	if !s.brk.allow() {
		s.diskSkipped.Add(1)
		return nil, errDegraded
	}
	b, err := s.fsys.ReadFile(s.path(ns, d))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.brk.success()
			return nil, err
		}
		s.diskErrors.Add(1)
		s.brk.failure()
		return nil, err
	}
	payload, err := unframe(b)
	if err != nil {
		// The disk performed the read; the data was bad. Quarantine the
		// entry for post-mortem and fall through to recompute. This is not
		// a breaker event: the I/O path is healthy.
		s.brk.success()
		s.corrupt.Add(1)
		s.quarantine(ns, d)
		return nil, err
	}
	s.brk.success()
	return payload, nil
}

// quarantine moves a corrupt entry out of the serving tree, preserving the
// bytes for inspection; if the move fails the entry is deleted so it can
// never be read again.
func (s *Store) quarantine(ns string, d Digest) {
	src := s.path(ns, d)
	dst := filepath.Join(s.dir, quarantineDir, ns+"-"+string(d)+".json")
	if err := s.fsys.MkdirAll(filepath.Dir(dst), 0o755); err == nil {
		if s.fsys.Rename(src, dst) == nil {
			s.quarantined.Add(1)
			return
		}
	}
	if s.fsys.Remove(src) == nil {
		s.quarantined.Add(1)
	}
}

// Put stores v under (ns, d) in memory and, when configured, on disk
// (checksummed frame, atomic temp-file + rename). A disk failure degrades
// the store to memory-only for that entry and is reported, but the value
// remains served; while the breaker is open the disk is skipped entirely
// (nil error — degraded mode is normal operation, not a failure).
func (s *Store) Put(ns string, d Digest, v []byte) error {
	if !validNS.MatchString(ns) {
		return fmt.Errorf("rescache: invalid namespace %q", ns)
	}
	s.mu.Lock()
	s.mem[key(ns, d)] = v
	s.mu.Unlock()
	s.puts.Add(1)
	if s.dir == "" {
		return nil
	}
	if !s.brk.allow() {
		s.diskSkipped.Add(1)
		return nil
	}
	p := s.path(ns, d)
	if err := s.fsys.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return s.putFailed(err)
	}
	tmp := filepath.Join(filepath.Dir(p), fmt.Sprintf(".%s.tmp-%d", d.Short(), s.tmpSeq.Add(1)))
	if err := s.fsys.WriteFile(tmp, frame(v), 0o644); err != nil {
		s.fsys.Remove(tmp)
		return s.putFailed(err)
	}
	if err := s.fsys.Rename(tmp, p); err != nil {
		s.fsys.Remove(tmp)
		return s.putFailed(err)
	}
	s.brk.success()
	return nil
}

func (s *Store) putFailed(err error) error {
	s.diskErrors.Add(1)
	s.brk.failure()
	return fmt.Errorf("rescache: %w", err)
}

// Do returns the cached bytes for (ns, d), computing them at most once across
// all concurrent callers. hit reports whether the result came from the cache
// without waiting on a compute.
//
// Lifecycle contract:
//   - compute runs on its own goroutine with a context that is cancelled
//     only when every waiter has abandoned the flight (last-waiter-cancels),
//     so one client disconnecting never aborts a run others still want; a
//     caller arriving after that starts a fresh flight;
//   - a panicking compute is isolated: waiters receive it as an error
//     wrapping ErrPanicked, the store stays usable;
//   - a caller whose ctx ends stops waiting and gets ctx's error; the
//     compute result (if it still finishes) is cached for future callers;
//   - failed computes are not cached — the next request retries.
func (s *Store) Do(ctx context.Context, ns string, d Digest, compute func(context.Context) ([]byte, error)) (v []byte, hit bool, err error) {
	if v, ok := s.getCtx(ctx, ns, d); ok {
		return v, true, nil
	}
	k := key(ns, d)
	q := telemetry.FromContext(ctx)
	s.mu.Lock()
	// Re-check memory under the lock: a flight may have completed between
	// Get and here.
	if v, ok := s.mem[k]; ok {
		s.mu.Unlock()
		s.memHits.Add(1)
		return v, true, nil
	}
	f := s.flights[k]
	if f == nil {
		// The flight's context is deliberately not derived from ctx (its
		// lifetime is last-waiter-cancels, not first-caller), but it does
		// carry the starting caller's tracked request so the compute layers
		// charge their phases somewhere: the request that caused the compute.
		// Joiners share the result without being charged.
		base := context.Background()
		if q != nil {
			base = telemetry.NewContext(base, q)
		}
		runCtx, cancel := context.WithCancelCause(base)
		f = &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
		s.flights[k] = f
		s.mu.Unlock()
		s.misses.Add(1)
		go s.runFlight(k, ns, d, f, runCtx, compute)
	} else {
		f.waiters++
		s.mu.Unlock()
		s.shared.Add(1)
	}

	select {
	case <-f.done:
		return f.val, false, f.err
	case <-ctx.Done():
		// The flight may have completed in the same instant; prefer its
		// result over a spurious abort.
		select {
		case <-f.done:
			return f.val, false, f.err
		default:
		}
		s.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		if last {
			// A caller arriving from now on must start a fresh flight, not
			// join this doomed one and inherit its cancellation.
			delete(s.flights, k)
		}
		s.mu.Unlock()
		if last {
			s.aborted.Add(1)
			f.cancel(context.Cause(ctx))
		}
		return nil, false, ctx.Err()
	}
}

// runFlight runs one flight's compute with panic isolation and publishes the
// outcome.
func (s *Store) runFlight(k, ns string, d Digest, f *flight, runCtx context.Context, compute func(context.Context) ([]byte, error)) {
	var v []byte
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
				err = fmt.Errorf("rescache: compute %s/%s: %w: %v", ns, d.Short(), ErrPanicked, r)
			}
		}()
		v, err = compute(runCtx)
	}()
	if err == nil {
		// A disk failure must not fail the request; the value is still good.
		_ = s.Put(ns, d, v)
	}
	s.mu.Lock()
	if s.flights[k] == f { // an abandoned flight's entry may already be a newer one
		delete(s.flights, k)
	}
	s.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
	f.cancel(nil) // release the context's resources
}
