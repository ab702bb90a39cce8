package coherence

import (
	"testing"
	"testing/quick"

	"dssmem/internal/cache"
	"dssmem/internal/interconnect"
	"dssmem/internal/memsys"
)

// testRig wires N caches to a directory over a uniform crossbar so latency
// arithmetic is easy to verify by hand.
func testRig(n int, p Params) (*Directory, []*cache.Cache) {
	caches := make([]*cache.Cache, n)
	views := make([]CoherentCache, n)
	nodeOf := make([]int, n)
	for i := range caches {
		caches[i] = cache.New(cache.Config{Name: "L", Size: 4096, LineSize: 32, Assoc: 2})
		views[i] = caches[i]
		nodeOf[i] = i
	}
	d := NewDirectory(Config{
		Params:       p,
		Placement:    memsys.Interleaved{N: 4, Unit: 32},
		Net:          interconnect.Crossbar{Ports: 16, Hop: 10},
		NodeOf:       nodeOf,
		Caches:       views,
		LineSize:     32,
		SharedLimit:  1 << 20,
		MemOccupancy: 0,
	})
	return d, caches
}

var baseParams = Params{MemAccess: 50, DirAccess: 5, CacheExtract: 20, InvalLatency: 15}

// access simulates the machine layer: probe, and on miss consult the
// directory and fill the probed way.
func access(d *Directory, caches []*cache.Cache, c int, line uint64, write bool, now uint64) Result {
	st, w := caches[c].Probe(line)
	if st != cache.Invalid {
		if write && st == cache.Shared {
			r := d.Upgrade(CacheID(c), line, now)
			caches[c].SetAt(w, r.Grant)
			return r
		}
		if write && st == cache.Exclusive {
			caches[c].SetAt(w, cache.Modified)
		}
		return Result{}
	}
	var r Result
	if write {
		r = d.Write(CacheID(c), line, now)
	} else {
		r = d.Read(CacheID(c), line, now)
	}
	v := caches[c].Fill(w, line, r.Grant)
	if v.State != cache.Invalid {
		d.Evict(CacheID(c), v.Line, v.State.Dirty(), now)
	}
	return r
}

func TestColdReadGrantsExclusive(t *testing.T) {
	d, caches := testRig(2, baseParams)
	r := d.Read(0, 100, 0)
	if r.Grant != cache.Exclusive || r.Class != Cold {
		t.Fatalf("got %+v", r)
	}
	// crossbar 10 + dir 5 + mem 50 + crossbar 10
	if r.Latency != 75 {
		t.Fatalf("latency = %d, want 75", r.Latency)
	}
	caches[0].Insert(100, r.Grant)
	if d.Stats.CleanMisses != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
}

func TestSecondReaderPaysCleanIntervention(t *testing.T) {
	d, caches := testRig(3, baseParams)
	access(d, caches, 0, 7, false, 0)
	r := access(d, caches, 1, 7, false, 10)
	// Owner has clean E; without speculation the requester pays 3 hops:
	// req 10 + dir 5 + (home->owner 10 + extract 20 + owner->req 10) = 55.
	if r.Latency != 55 {
		t.Fatalf("second reader latency = %d, want 55", r.Latency)
	}
	if r.Grant != cache.Shared || d.Stats.CleanInterventions != 1 {
		t.Fatalf("got %+v, stats %+v", r, d.Stats)
	}
	if caches[0].StateOf(7) != cache.Shared {
		t.Fatal("owner not downgraded")
	}
	// Third reader: line now Shared at home — served by memory, cheaper.
	r3 := access(d, caches, 2, 7, false, 20)
	if r3.Latency != 75 {
		t.Fatalf("third reader latency = %d, want 75 (clean)", r3.Latency)
	}
	if r3.Latency >= 55+d.Stats.CleanMisses*0 && d.Stats.CleanSharedGrants != 1 {
		t.Fatalf("third read should be a shared grant: %+v", d.Stats)
	}
}

func TestSpeculativeReplyHidesCleanIntervention(t *testing.T) {
	p := baseParams
	p.Speculative = true
	d, caches := testRig(2, p)
	access(d, caches, 0, 7, false, 0)
	r := access(d, caches, 1, 7, false, 10)
	// Speculative reply: cost of a clean miss (75).
	if r.Latency != 75 {
		t.Fatalf("latency = %d, want 75", r.Latency)
	}
	if d.Stats.SpeculativeHits != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
}

func TestDirtyReadIntervention(t *testing.T) {
	d, caches := testRig(2, baseParams)
	access(d, caches, 0, 7, true, 0) // write miss: cache 0 holds M
	if caches[0].StateOf(7) != cache.Modified {
		t.Fatal("setup failed")
	}
	r := access(d, caches, 1, 7, false, 10)
	if !r.Dirty3Hop || r.Latency != 55 {
		t.Fatalf("got %+v", r)
	}
	// Plain MESI (no migratory): both end up Shared.
	if r.Grant != cache.Shared || caches[0].StateOf(7) != cache.Shared {
		t.Fatal("expected S/S after dirty read intervention")
	}
	if r.Class != Cold {
		t.Fatalf("cache 1 never held the line: class = %v", r.Class)
	}
}

func TestMigratoryReadMigratesOwnership(t *testing.T) {
	p := baseParams
	p.Migratory = true
	d, caches := testRig(3, p)
	// Train the detector: read-then-upgrade hand-off 0 -> 1.
	access(d, caches, 0, 7, true, 0)
	access(d, caches, 1, 7, false, 10)
	access(d, caches, 1, 7, true, 20)
	// Trained: the next dirty read migrates ownership.
	r := access(d, caches, 2, 7, false, 30)
	if r.Grant != cache.Modified {
		t.Fatalf("migratory read should grant M, got %v", r.Grant)
	}
	if caches[1].StateOf(7) != cache.Invalid {
		t.Fatal("previous owner should be invalidated")
	}
	if d.Stats.MigratoryTransfers != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
	// The new owner can now write without any further protocol traffic.
	if st, _ := caches[2].Probe(7); st != cache.Modified {
		t.Fatal("new owner should write-hit in M")
	}
}

func TestMigratoryUntrainedLineDoesNotMigrate(t *testing.T) {
	p := baseParams
	p.Migratory = true
	d, caches := testRig(2, p)
	access(d, caches, 0, 7, true, 0)
	r := access(d, caches, 1, 7, false, 10)
	if r.Grant != cache.Shared || d.Stats.MigratoryTransfers != 0 {
		t.Fatalf("untrained dirty read must downgrade, got %+v / %+v", r, d.Stats)
	}
}

func TestWriteToSharedInvalidatesAll(t *testing.T) {
	d, caches := testRig(4, baseParams)
	access(d, caches, 0, 7, false, 0)
	access(d, caches, 1, 7, false, 1)
	access(d, caches, 2, 7, false, 2) // line S in 0,1,2
	r := access(d, caches, 3, 7, true, 3)
	if r.Grant != cache.Modified {
		t.Fatalf("grant = %v", r.Grant)
	}
	for i := 0; i < 3; i++ {
		if caches[i].StateOf(7) != cache.Invalid {
			t.Fatalf("cache %d still holds the line", i)
		}
	}
	if d.Stats.InvalidationsSent != 3 {
		t.Fatalf("invalidations = %d", d.Stats.InvalidationsSent)
	}
	// Their next read is a coherence miss.
	r0 := access(d, caches, 0, 7, false, 4)
	if r0.Class != Coherence {
		t.Fatalf("class = %v, want coherence", r0.Class)
	}
}

func TestUpgradeSoleSharerIsCheap(t *testing.T) {
	d, caches := testRig(2, baseParams)
	// Get line into S state in one cache only: reader then dirty intervention.
	access(d, caches, 0, 7, false, 0)
	access(d, caches, 1, 7, false, 1) // S in both
	access(d, caches, 1, 7, true, 2)  // upgrade with another sharer: invalidation
	if d.Stats.Upgrades != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
	if caches[0].StateOf(7) != cache.Invalid {
		t.Fatal("other sharer must be invalidated on upgrade")
	}
}

func TestUpgradeRaceFallsBackToWrite(t *testing.T) {
	d, caches := testRig(2, baseParams)
	access(d, caches, 0, 7, false, 0)
	access(d, caches, 1, 7, false, 1)
	access(d, caches, 0, 7, true, 2) // cache 0 upgrades; invalidates cache 1
	// Cache 1 believes it has S (it does not — already invalidated). Calling
	// Upgrade directly models the race; it must degrade to a full Write.
	r := d.Upgrade(1, 7, 3)
	if r.Grant != cache.Modified {
		t.Fatalf("grant = %v", r.Grant)
	}
	if caches[0].StateOf(7) != cache.Invalid {
		t.Fatal("old owner must be invalidated by fallback write")
	}
}

func TestEvictionReturnsLineToMemory(t *testing.T) {
	d, caches := testRig(2, baseParams)
	access(d, caches, 0, 7, true, 0)
	d.Evict(0, 7, true, 10)
	caches[0].Invalidate(7)
	if d.Stats.Writebacks != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
	// Next reader sees it uncached: capacity-class miss for cache 0, cold for 1.
	r := d.Read(1, 7, 20)
	if r.Latency != 75 || r.Grant != cache.Exclusive {
		t.Fatalf("got %+v", r)
	}
	r0 := d.Read(0, 7, 30)
	if r0.Class != Capacity && r0.Class != Coherence {
		// cache 0's copy left by eviction, not invalidation -> capacity...
		t.Fatalf("class = %v", r0.Class)
	}
}

func TestSilentOwnerLossHandled(t *testing.T) {
	d, caches := testRig(2, baseParams)
	access(d, caches, 0, 7, false, 0) // E in cache 0
	caches[0].Invalidate(7)           // silent loss (e.g. flush) without Evict
	r := d.Read(1, 7, 10)
	if r.Grant != cache.Exclusive || r.Latency != 75 {
		t.Fatalf("got %+v", r)
	}
}

func TestMemoryContentionQueues(t *testing.T) {
	caches := []*cache.Cache{
		cache.New(cache.Config{Name: "a", Size: 1024, LineSize: 32, Assoc: 2}),
		cache.New(cache.Config{Name: "b", Size: 1024, LineSize: 32, Assoc: 2}),
	}
	d := NewDirectory(Config{
		Params:       baseParams,
		Placement:    memsys.Concentrated{NodesTotal: 2, SharedNodes: 1},
		Net:          interconnect.Crossbar{Ports: 2, Hop: 10},
		NodeOf:       []int{0, 1},
		Caches:       []CoherentCache{caches[0], caches[1]},
		LineSize:     32,
		SharedLimit:  1 << 16,
		MemOccupancy: 40,
	})
	r1 := d.Read(0, 1, 0)
	r2 := d.Read(1, 2, 0) // same home node (concentrated), same instant
	if r2.Latency <= r1.Latency {
		t.Fatalf("expected queueing: %d then %d", r1.Latency, r2.Latency)
	}
	if d.Stats.QueueWait == 0 {
		t.Fatal("queue wait not recorded")
	}
}

func TestPerCacheLatencyAccounting(t *testing.T) {
	d, caches := testRig(2, baseParams)
	r1 := access(d, caches, 0, 1, false, 0)
	r2 := access(d, caches, 0, 2, false, 1)
	r3 := access(d, caches, 1, 3, false, 2)
	if d.Stats.Reads != 3 {
		t.Fatalf("reads = %d, want 3", d.Stats.Reads)
	}
	if r1.Latency+r2.Latency != 150 {
		t.Fatalf("cache 0 latency sum = %d", r1.Latency+r2.Latency)
	}
	if d.Stats.TotalLatency != 150+r3.Latency {
		t.Fatalf("total latency = %d, returned %d", d.Stats.TotalLatency, 150+r3.Latency)
	}
}

func TestSparseFallbackForPrivateLines(t *testing.T) {
	d, caches := testRig(2, baseParams)
	priv := uint64(memsys.PrivateBase(0)) >> 5
	r := d.Read(0, priv, 0)
	if r.Class != Cold || r.Grant != cache.Exclusive {
		t.Fatalf("got %+v", r)
	}
	caches[0].Insert(priv, r.Grant)
	r2 := d.Read(0, priv, 1)
	if r2.Class != Capacity {
		t.Fatalf("second private read class = %v", r2.Class)
	}
}

// Property: for any interleaving of reads/writes by up to 4 caches over a
// small line set, the directory and cache states stay mutually consistent:
//   - at most one cache holds E/M on a line;
//   - if any cache holds M/E, no other cache holds S... (MESI single-writer)
func TestMESIInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d, caches := testRig(4, baseParams)
		now := uint64(0)
		for _, op := range ops {
			c := int(op) % 4
			line := uint64(op>>2) % 8
			write := op&0x100 != 0
			access(d, caches, c, line, write, now)
			now += 7
			for l := uint64(0); l < 8; l++ {
				owners, sharers := 0, 0
				for _, cc := range caches {
					switch cc.StateOf(l) {
					case cache.Exclusive, cache.Modified:
						owners++
					case cache.Shared:
						sharers++
					}
				}
				if owners > 1 || (owners == 1 && sharers > 0) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
