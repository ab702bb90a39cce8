package coherence

import "testing"

// TestDirectoryMissAllocFree: once a line's directory entry exists (slab
// handle in the sparse map), further misses on it — read, write, upgrade,
// evict — must not allocate. This is the guarantee that replaced the old
// per-line *entry heap allocation with the chunked slab.
func TestDirectoryMissAllocFree(t *testing.T) {
	d, caches := testRig(4, baseParams)
	const lines = 512
	// Warm: materialize every entry and both CPUs' sharer bookkeeping.
	now := uint64(0)
	for l := uint64(0); l < lines; l++ {
		d.Read(0, l, now)
		d.Read(1, l, now+1)
		now += 10
	}
	// Caches are tiny (4 KB / 32 B): almost all of these re-accesses are real
	// capacity misses against existing entries.
	var l uint64
	allocs := testing.AllocsPerRun(1000, func() {
		d.Read(0, l%lines, now)
		d.Write(1, (l+7)%lines, now+1)
		d.Evict(1, (l+7)%lines, true, now+2)
		now += 10
		l++
	})
	if allocs != 0 {
		t.Fatalf("steady-state directory miss path allocates %.1f objects/op, want 0", allocs)
	}
	_ = caches
}
