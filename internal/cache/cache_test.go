package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", Size: 1024, LineSize: 32, Assoc: 2}) // 16 sets
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "line", Size: 1024, LineSize: 33, Assoc: 2},
		{Name: "div", Size: 1000, LineSize: 32, Assoc: 2},
		{Name: "sets", Size: 32 * 3 * 2, LineSize: 32, Assoc: 2}, // 3 sets
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be invalid", cfg.Name)
		}
	}
	good := Config{Name: "ok", Size: 1024, LineSize: 32, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.Lines() != 32 || good.Sets() != 16 {
		t.Fatalf("geometry: lines=%d sets=%d", good.Lines(), good.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	line := c.LineOf(0x1000)
	st, w := c.Probe(line)
	if st != Invalid {
		t.Fatal("cold probe should miss")
	}
	c.Fill(w, line, Exclusive)
	if st, hw := c.Probe(line); st != Exclusive || hw != w {
		t.Fatalf("expected an E hit in way %d, got %v in way %d", w, st, hw)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way; lines mapping to same set differ by 16 in line number
	a, b, d := uint64(0), uint64(16), uint64(32)
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	c.Probe(a) // touch a, making b the LRU
	v := c.Insert(d, Shared)
	if v.Line != b || v.State != Shared {
		t.Fatalf("victim = %+v, want line %d", v, b)
	}
	if c.StateOf(a) != Shared || c.StateOf(d) != Shared || c.StateOf(b) != Invalid {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := small()
	if v := c.Insert(0, Modified); v.State != Invalid {
		t.Fatalf("insert into an empty set displaced %+v", v)
	}
	if v := c.Insert(16, Shared); v.State != Invalid {
		t.Fatalf("insert into a half-full set displaced %+v", v)
	}
	v := c.Insert(32, Shared) // evicts line 0 (LRU) which is dirty
	if v.Line != 0 || !v.State.Dirty() {
		t.Fatalf("victim = %+v, want dirty line 0", v)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := small()
	c.Insert(5, Modified)
	if st := c.Downgrade(5); st != Modified {
		t.Fatalf("downgrade returned %v", st)
	}
	if c.StateOf(5) != Shared {
		t.Fatal("line not downgraded")
	}
	if st := c.Invalidate(5); st != Shared {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.StateOf(5) != Invalid {
		t.Fatal("line not invalidated")
	}
	if c.Invalidate(5) != Invalid {
		t.Fatal("double invalidate should be a no-op")
	}
	if c.Downgrade(5) != Invalid {
		t.Fatal("downgrade of an absent line should be a no-op")
	}
}

func TestDowngradeSharedIsNoop(t *testing.T) {
	c := small()
	c.Insert(7, Shared)
	if st := c.Downgrade(7); st != Shared {
		t.Fatalf("got %v", st)
	}
	if c.StateOf(7) != Shared {
		t.Fatal("S->S downgrade must leave the line Shared")
	}
}

func TestSetAtPanicsOnEmptyWay(t *testing.T) {
	c := small()
	_, w := c.Probe(99) // a miss names an empty way
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SetAt(w, Modified)
}

func TestUpgradePath(t *testing.T) {
	c := small()
	c.Insert(3, Shared)
	st, w := c.Probe(3)
	if st != Shared {
		t.Fatalf("probe: %v", st)
	}
	// The protocol layer decides this is an upgrade; cache just changes state.
	c.SetAt(w, Modified)
	if c.StateOf(3) != Modified {
		t.Fatal("upgrade failed")
	}
}

func TestFlushFraction(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 32, Assoc: 4})
	for i := uint64(0); i < 128; i++ {
		c.Insert(i, Shared)
	}
	before := c.ValidLines()
	victims := c.FlushFraction(0.25)
	after := c.ValidLines()
	if len(victims) == 0 || before-after != len(victims) {
		t.Fatalf("flush removed %d, victims %d", before-after, len(victims))
	}
	frac := float64(len(victims)) / float64(before)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("flushed fraction %.2f, want ~0.25", frac)
	}
	if c.FlushFraction(0) != nil {
		t.Fatal("frac 0 should flush nothing")
	}
}

func TestLineOf(t *testing.T) {
	c := small()
	if c.LineOf(0) != 0 || c.LineOf(31) != 0 || c.LineOf(32) != 1 {
		t.Fatal("LineOf broken")
	}
}

// Property: the cache never holds more than Assoc lines of any one set, and a
// just-inserted line is always resident.
func TestInsertResidencyProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			line := c.LineOf(uint64(a))
			if st, w := c.Probe(line); st == Invalid {
				c.Fill(w, line, Exclusive)
			}
			if c.StateOf(line) == Invalid {
				return false
			}
			if c.ValidLines() > c.Config().Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a map-based true-LRU model of caches of 16 sets of 1, 2 and 4
// ways predicts every Probe hit or miss and returned state, Fill victim and
// StateOf over random sequences of Probe (with Fill after a miss and SetAt
// after a hit), Invalidate, Downgrade and MarkModified. The lines 0, 8, 16,
// ... fall assoc+1 to a set in sets 0 and 8, so most fills evict. A hit must
// name the way the line was filled into.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const sets, stride = 16, 8
	type refWay struct {
		state State
		used  int // tick of the last Probe hit or Fill
		way   int
	}
	for _, assoc := range []int{1, 2, 4} {
		lines := uint64(2 * (assoc + 1))
		f := func(ops []uint16) bool {
			c := New(Config{Name: "t", Size: sets * assoc * 32, LineSize: 32, Assoc: assoc})
			ref := map[uint64]refWay{}
			tick := 0
			for _, op := range ops {
				line := uint64(op>>3) % lines * stride
				want, resident := ref[line]
				switch op & 7 {
				case 0, 1, 2, 6: // Probe; a miss is filled with S, E or M
					st, w := c.Probe(line)
					if (st != Invalid) != resident || st != want.state || (resident && w != want.way) {
						t.Logf("%d-way: Probe(%d) = %v in way %d, model %v in way %d", assoc, line, st, w, want.state, want.way)
						return false
					}
					tick++
					if resident {
						want.used = tick
						if op&7 == 6 { // a write hit: E or S becomes M
							c.SetAt(w, Modified)
							want.state = Modified
						}
						ref[line] = want
						break
					}
					fill := State(op>>9%3) + Shared
					var wantV Victim
					full := 0
					for l, rw := range ref {
						if l%sets != line%sets {
							continue
						}
						full++
						if wantV.State == Invalid || rw.used < ref[wantV.Line].used {
							wantV = Victim{Line: l, State: rw.state}
						}
					}
					if full < assoc {
						wantV = Victim{}
					}
					if v := c.Fill(w, line, fill); v.State != wantV.State || (v.State != Invalid && v.Line != wantV.Line) {
						t.Logf("%d-way: Fill(%d) victim %+v, model %+v", assoc, line, v, wantV)
						return false
					}
					if wantV.State != Invalid {
						delete(ref, wantV.Line)
					}
					ref[line] = refWay{fill, tick, w}
				case 3:
					if st := c.Invalidate(line); st != want.state {
						t.Logf("%d-way: Invalidate(%d) = %v, model %v", assoc, line, st, want.state)
						return false
					}
					delete(ref, line)
				case 4:
					if st := c.Downgrade(line); st != want.state {
						t.Logf("%d-way: Downgrade(%d) = %v, model %v", assoc, line, st, want.state)
						return false
					}
					if want.state == Modified || want.state == Exclusive {
						want.state = Shared
						ref[line] = want
					}
				case 5:
					if st := c.MarkModified(line); st != want.state {
						t.Logf("%d-way: MarkModified(%d) = %v, model %v", assoc, line, st, want.state)
						return false
					}
					if resident {
						want.state = Modified
						ref[line] = want
					}
				}
				for l := uint64(0); l < lines*stride; l += stride {
					if got := c.StateOf(l); got != ref[l].state {
						t.Logf("%d-way: StateOf(%d) = %v, model %v", assoc, l, got, ref[l].state)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%d-way: %v", assoc, err)
		}
	}
}

// A fully-sequential scan larger than the cache must miss exactly once per
// line (pure spatial locality, no reuse).
func TestSequentialScanMissesOncePerLine(t *testing.T) {
	c := New(Config{Name: "t", Size: 2048, LineSize: 32, Assoc: 2})
	const span = 16 * 1024
	misses := 0
	for addr := uint64(0); addr < span; addr += 8 {
		line := c.LineOf(addr)
		if st, w := c.Probe(line); st == Invalid {
			misses++
			c.Fill(w, line, Exclusive)
		}
	}
	if wantMisses := span / 32; misses != wantMisses {
		t.Fatalf("misses = %d, want %d", misses, wantMisses)
	}
}
