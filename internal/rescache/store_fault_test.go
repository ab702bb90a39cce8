package rescache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dssmem/internal/fault"
)

func digestN(n byte) Digest {
	return Digest(strings.Repeat(string([]byte{'a' + n%16}), 64))
}

// TestCorruptEntryQuarantinedAndRecomputed is the issue's acceptance
// scenario: a hand-corrupted disk entry (one flipped byte) must be detected
// on read, quarantined, recomputed, and re-served correctly.
func TestCorruptEntryQuarantinedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := digestN(0)
	payload := []byte(`{"cpi":1.25,"query":"Q6"}`)
	if err := s1.Put(NSMeasurement, d, payload); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the payload region on disk.
	p := s1.path(NSMeasurement, d)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store (no memory copy) must detect the corruption on read.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(NSMeasurement, d); ok {
		t.Fatalf("corrupt entry served as a hit: %q", v)
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("Corrupt=%d Quarantined=%d, want 1/1", st.Corrupt, st.Quarantined)
	}
	if st.DiskErrors != 0 {
		t.Fatalf("corruption wrongly counted as an I/O fault: %+v", st)
	}
	// The bad bytes are preserved for post-mortem, out of the serving tree.
	qfile := filepath.Join(s2.QuarantineDir(), NSMeasurement+"-"+string(d)+".json")
	qraw, err := os.ReadFile(qfile)
	if err != nil {
		t.Fatalf("quarantined entry missing: %v", err)
	}
	if string(qraw) != string(raw) {
		t.Fatal("quarantined bytes differ from the corrupt original")
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry still in the serving tree")
	}

	// Do falls through to recompute and re-serves the correct value.
	var computes int
	v, hit, err := s2.Do(context.Background(), NSMeasurement, d, func(context.Context) ([]byte, error) {
		computes++
		return payload, nil
	})
	if err != nil || hit || string(v) != string(payload) || computes != 1 {
		t.Fatalf("recompute: v=%q hit=%v err=%v computes=%d", v, hit, err, computes)
	}

	// The recomputed entry is re-persisted and verifiable by a fresh store.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s3.Get(NSMeasurement, d)
	if !ok || string(v) != string(payload) {
		t.Fatalf("re-persisted entry: %q, %v", v, ok)
	}
}

// TestTornWriteDetectedOnRead: a write that persisted only a prefix (crash
// mid-write that still renamed, or injected torn write) must never be served.
func TestTornWriteDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(11)
	inj.Set(fault.DiskWriteTorn, 1)
	s1, err := OpenFS(dir, fault.FS{Inner: OSFS{}, Inj: inj})
	if err != nil {
		t.Fatal(err)
	}
	d := digestN(1)
	if err := s1.Put(NSMeasurement, d, []byte(`{"big":"payload payload payload"}`)); err != nil {
		t.Fatalf("torn write surfaced as error: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(NSMeasurement, d); ok {
		t.Fatalf("torn entry served: %q", v)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("torn entry not flagged corrupt: %+v", st)
	}
}

// TestLegacyUnframedEntryQuarantined: pre-framing files (raw JSON, no
// header) are unverifiable and must be quarantined, not served.
func TestLegacyUnframedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := digestN(2)
	p := s.path(NSMeasurement, d)
	os.MkdirAll(filepath.Dir(p), 0o755)
	os.WriteFile(p, []byte(`{"legacy":true}`), 0o644)
	if _, ok := s.Get(NSMeasurement, d); ok {
		t.Fatal("unverifiable legacy entry served")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("legacy entry not quarantined: %+v", st)
	}
}

// TestGetDistinguishesIOErrorFromMiss pins the satellite fix: a cold cache
// is not a disk fault, a failing disk is not a cold cache.
func TestGetDistinguishesIOErrorFromMiss(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(5)
	s, err := OpenFS(dir, fault.FS{Inner: OSFS{}, Inj: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(NSMeasurement, digestN(3)); ok {
		t.Fatal("hit on absent digest")
	}
	if st := s.Stats(); st.DiskErrors != 0 {
		t.Fatalf("plain miss counted as disk error: %+v", st)
	}
	inj.Set(fault.DiskReadErr, 1)
	if _, ok := s.Get(NSMeasurement, digestN(4)); ok {
		t.Fatal("hit through failing disk")
	}
	if st := s.Stats(); st.DiskErrors != 1 {
		t.Fatalf("injected I/O error not counted: %+v", st)
	}
}

// TestBreakerTripsAndRecovers drives the full state machine: consecutive
// faults -> open (memory-only), cooldown -> half-open probe, probe failure
// -> open again, probe success -> closed.
func TestBreakerTripsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(21)
	s, err := OpenFS(dir, fault.FS{Inner: OSFS{}, Inj: inj})
	if err != nil {
		t.Fatal(err)
	}
	s.SetBreaker(3, time.Hour)
	clock := time.Unix(1_000_000, 0)
	s.brk.now = func() time.Time { return clock }

	inj.Set(fault.DiskReadErr, 1)
	for i := 0; i < 3; i++ {
		if s.Stats().Degraded {
			t.Fatalf("degraded after only %d faults", i)
		}
		s.Get(NSMeasurement, digestN(byte(5+i)))
	}
	if !s.Stats().Degraded {
		t.Fatal("breaker did not trip after 3 consecutive faults")
	}
	if st := s.Stats(); st.Breaker != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after trip: %+v", st)
	}

	// Open: disk bypassed entirely — no reads attempted, Puts skip disk.
	before := s.Stats().DiskErrors
	s.Get(NSMeasurement, digestN(8))
	if err := s.Put(NSMeasurement, digestN(9), []byte("v")); err != nil {
		t.Fatalf("degraded Put failed: %v", err)
	}
	st := s.Stats()
	if st.DiskErrors != before {
		t.Fatal("disk touched while breaker open")
	}
	if st.DiskSkipped == 0 {
		t.Fatal("skipped operations not counted")
	}
	if v, ok := s.Get(NSMeasurement, digestN(9)); !ok || string(v) != "v" {
		t.Fatal("memory tier broken in degraded mode")
	}
	if _, err := os.Stat(s.path(NSMeasurement, digestN(9))); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("degraded Put wrote to disk")
	}

	// Cooldown elapses; the probe fails; breaker re-opens.
	clock = clock.Add(2 * time.Hour)
	s.Get(NSMeasurement, digestN(10))
	if st := s.Stats(); st.Breaker != "open" || st.BreakerTrips != 2 {
		t.Fatalf("failed probe should re-open: %+v", st)
	}

	// Disk heals; next probe succeeds (ErrNotExist = healthy answer).
	inj.DisableAll()
	clock = clock.Add(2 * time.Hour)
	s.Get(NSMeasurement, digestN(11))
	if s.Stats().Degraded {
		t.Fatal("breaker did not close after a successful probe")
	}
	// Persistence resumes.
	if err := s.Put(NSMeasurement, digestN(12), []byte("back")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.path(NSMeasurement, digestN(12))); err != nil {
		t.Fatalf("recovered Put not on disk: %v", err)
	}
}

// TestOrphanSweep: temp files from a crashed writer are removed at Open.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, NSMeasurement, "ab", ".abcdef.tmp-3")
	os.MkdirAll(filepath.Dir(orphan), 0o755)
	os.WriteFile(orphan, []byte("half a result"), 0o644)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.OrphansSwept != 1 {
		t.Fatalf("OrphansSwept = %d, want 1", st.OrphansSwept)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan temp file survived the sweep")
	}
}

// TestDoPanicRacesLastWaiterCancellation (satellite): a compute panicking
// while the last waiter is simultaneously cancelling must neither deadlock
// nor corrupt the flight table. Run with -race.
func TestDoPanicRacesLastWaiterCancellation(t *testing.T) {
	for i := 0; i < 150; i++ {
		s := NewMemory()
		d := digestN(byte(i))
		ctx1, cancel1 := context.WithCancel(context.Background())
		ctx2, cancel2 := context.WithCancel(context.Background())
		enter := make(chan struct{})
		compute := func(runCtx context.Context) ([]byte, error) {
			close(enter)
			// Vary interleaving: sometimes panic immediately, sometimes
			// after the waiters have started leaving.
			if i%3 != 0 {
				time.Sleep(time.Duration(i%5) * 50 * time.Microsecond)
			}
			panic(fault.ErrInjected)
		}

		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _, errs[0] = s.Do(ctx1, NSMeasurement, d, compute)
		}()
		go func() {
			defer wg.Done()
			_, _, errs[1] = s.Do(ctx2, NSMeasurement, d, compute)
		}()
		<-enter
		// Both waiters leave while the compute is panicking.
		cancel1()
		cancel2()
		wg.Wait()

		for w, err := range errs {
			if err == nil {
				t.Fatalf("iter %d waiter %d: nil error from cancelled/panicked flight", i, w)
			}
			if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrPanicked) {
				t.Fatalf("iter %d waiter %d: unexpected error %v", i, w, err)
			}
		}
		// The store must remain fully usable: same digest, fresh compute.
		// Once both waiters are gone the flight has left the table, whether
		// it panicked first or was abandoned first, so the retry computes.
		v, _, err := s.Do(context.Background(), NSMeasurement, d, func(context.Context) ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || string(v) != "recovered" {
			t.Fatalf("iter %d: store wedged after race: v=%q err=%v", i, v, err)
		}
		cancel1()
		cancel2()
	}
}

// TestPanicErrorIsTyped: waiters can classify panics via errors.Is (the
// service maps them to a retriable status).
func TestPanicErrorIsTyped(t *testing.T) {
	s := NewMemory()
	_, _, err := s.Do(context.Background(), NSMeasurement, digestN(40), func(context.Context) ([]byte, error) {
		panic("kaboom")
	})
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("err = %v, want ErrPanicked", err)
	}
}
