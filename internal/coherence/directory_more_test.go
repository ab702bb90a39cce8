package coherence

import (
	"testing"
	"testing/quick"

	"dssmem/internal/cache"
)

// Latency floor: every transaction must cost at least the request trip plus
// the directory access — nothing is free.
func TestLatencyFloorProperty(t *testing.T) {
	d, caches := testRig(4, baseParams)
	floor := uint64(10 + 5) // crossbar hop + DirAccess
	f := func(ops []uint16) bool {
		for _, op := range ops {
			c := int(op) % 4
			line := uint64(op>>2) % 32
			var r Result
			if op&0x200 != 0 {
				r = d.Write(CacheID(c), line, uint64(op))
			} else {
				r = d.Read(CacheID(c), line, uint64(op))
			}
			caches[c].Insert(line, r.Grant)
			if r.Latency < floor {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Dirty interventions must always cost more than clean local misses under
// the same parameters.
func TestDirtyCostsMoreThanClean(t *testing.T) {
	d, caches := testRig(2, baseParams)
	clean := d.Read(0, 1, 0)
	caches[0].Insert(1, clean.Grant)

	w := d.Write(0, 2, 10)
	caches[0].Insert(2, w.Grant)
	dirty := d.Read(1, 2, 20)
	if dirty.Latency <= clean.Latency-d.params.MemAccess {
		t.Fatalf("dirty %d vs clean %d", dirty.Latency, clean.Latency)
	}
	if !dirty.Dirty3Hop {
		t.Fatal("dirty flag missing")
	}
}

func TestEvictByNonHolderIsNoop(t *testing.T) {
	d, caches := testRig(2, baseParams)
	r := d.Read(0, 7, 0)
	caches[0].Insert(7, r.Grant)
	// Cache 1 never held line 7; its (spurious) evict must not disturb the
	// owner's directory state.
	d.Evict(1, 7, false, 10)
	r2 := d.Read(1, 7, 20)
	if r2.Grant != cache.Shared && r2.Grant != cache.Exclusive {
		t.Fatalf("grant = %v", r2.Grant)
	}
	if caches[0].StateOf(7) == cache.Invalid && r2.Grant == cache.Exclusive {
		// Acceptable only if the directory saw the owner's copy gone.
		t.Log("owner silently lost its line")
	}
}

// The Results a requester gets back account for every directory transaction:
// their latencies sum to TotalLatency and their count to Reads+Writes+Upgrades.
// A cache hit returns the zero Result, and no transaction is free (see
// TestLatencyFloorProperty), so a nonzero latency marks a transaction.
func TestReturnedLatencyMatchesGlobal(t *testing.T) {
	d, caches := testRig(3, baseParams)
	now := uint64(0)
	var lat, reqs uint64
	for i := 0; i < 200; i++ {
		c := i % 3
		if r := access(d, caches, c, uint64(i%17), i%5 == 0, now); r.Latency > 0 {
			lat += r.Latency
			reqs++
		}
		now += 13
	}
	if lat != d.Stats.TotalLatency {
		t.Fatalf("latency: returned %d vs global %d", lat, d.Stats.TotalLatency)
	}
	if reqs != d.Stats.Reads+d.Stats.Writes+d.Stats.Upgrades {
		t.Fatalf("requests: %d vs %d", reqs, d.Stats.Reads+d.Stats.Writes+d.Stats.Upgrades)
	}
}

func TestSpeculativeNeverWorseThanPlain(t *testing.T) {
	// For the same access pattern, speculation can only reduce (or match)
	// total latency — provided owner extraction costs at least a memory
	// access, which holds on the real machines (the speculative reply
	// substitutes the home's DRAM read for the owner's cache extraction).
	realistic := Params{MemAccess: 45, DirAccess: 6, CacheExtract: 80, InvalLatency: 30}
	pattern := func(p Params) uint64 {
		d, caches := testRig(3, p)
		now := uint64(0)
		for i := 0; i < 300; i++ {
			access(d, caches, i%3, uint64(i%11), i%7 == 0, now)
			now += 9
		}
		return d.Stats.TotalLatency
	}
	spec := realistic
	spec.Speculative = true
	if pattern(spec) > pattern(realistic) {
		t.Fatal("speculation increased total latency")
	}
}

func TestWritebackServesHomeOccupancy(t *testing.T) {
	d, caches := testRig(2, baseParams)
	r := d.Write(0, 3, 0)
	caches[0].Insert(3, r.Grant)
	before := uint64(0)
	for _, s := range d.MemServers() {
		before += s.Requests
	}
	d.Evict(0, 3, true, 100)
	var after uint64
	for _, s := range d.MemServers() {
		after += s.Requests
	}
	if after != before+1 {
		t.Fatalf("writeback did not visit home memory: %d -> %d", before, after)
	}
}

func TestMigratoryTrainingPersists(t *testing.T) {
	p := baseParams
	p.Migratory = true
	d, caches := testRig(4, p)
	// Train via 0 -> 1 hand-off.
	access(d, caches, 0, 7, true, 0)
	access(d, caches, 1, 7, false, 10)
	access(d, caches, 1, 7, true, 20)
	// Every subsequent dirty-read hand-off migrates: 1->2, 2->3, 3->0.
	start := d.Stats.MigratoryTransfers
	access(d, caches, 2, 7, false, 30)
	access(d, caches, 2, 7, true, 40)
	access(d, caches, 3, 7, false, 50)
	access(d, caches, 3, 7, true, 60)
	access(d, caches, 0, 7, false, 70)
	if got := d.Stats.MigratoryTransfers - start; got != 3 {
		t.Fatalf("migratory transfers = %d, want 3", got)
	}
}

func TestNoExclusiveGrantsShared(t *testing.T) {
	p := baseParams
	p.NoExclusive = true
	d, caches := testRig(2, p)
	r := access(d, caches, 0, 7, false, 0)
	if r.Grant != cache.Shared {
		t.Fatalf("MSI cold read granted %v", r.Grant)
	}
	// The second reader is now served from memory — no intervention.
	r2 := access(d, caches, 1, 7, false, 10)
	if d.Stats.CleanInterventions != 0 {
		t.Fatalf("MSI should have no clean interventions: %+v", d.Stats)
	}
	if r2.Latency != 75 {
		t.Fatalf("second reader latency %d, want clean 75", r2.Latency)
	}
	// But a write by the original reader now needs an upgrade.
	access(d, caches, 0, 8, false, 20)
	access(d, caches, 0, 8, true, 30)
	if d.Stats.Upgrades == 0 {
		t.Fatal("MSI write-after-read must upgrade")
	}
}
