package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
)

func newTree(pages int) *Tree {
	return New(storage.NewPool(0x100000, pages))
}

// height returns the tree height (1 = just a leaf root).
func height(t *Tree) int {
	h, pg := 1, t.root
	for !t.isLeaf(pg) {
		pg = t.childAt(pg, 0)
		h++
	}
	return h
}

// numNodes counts the pages used by the subtree at pg.
func numNodes(t *Tree, pg int) int {
	if t.isLeaf(pg) {
		return 1
	}
	n := 1
	for i := 0; i <= t.nkeys(pg); i++ {
		n += numNodes(t, t.childAt(pg, i))
	}
	return n
}

func TestPackUnpackTID(t *testing.T) {
	tid := storage.TID{Page: 123456, Slot: 789}
	if UnpackTID(PackTID(tid)) != tid {
		t.Fatal("TID round trip broken")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(4)
	if tr.Len() != 0 || height(tr) != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), height(tr))
	}
	if got := tr.Lookup(storage.NullMem{}, 42, nil); len(got) != 0 {
		t.Fatal("lookup in empty tree")
	}
}

func TestInsertLookupSmall(t *testing.T) {
	tr := newTree(8)
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i*3), storage.TID{Page: uint32(i), Slot: 1})
	}
	for i := 0; i < 100; i++ {
		got := tr.Lookup(storage.NullMem{}, int64(i*3), nil)
		if len(got) != 1 || got[0].Page != uint32(i) {
			t.Fatalf("lookup %d: %v", i*3, got)
		}
	}
	if got := tr.Lookup(storage.NullMem{}, 1, nil); len(got) != 0 {
		t.Fatal("absent key found")
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := newTree(8)
	for i := 0; i < 50; i++ {
		tr.Insert(7, storage.TID{Page: uint32(i)})
	}
	got := tr.Lookup(storage.NullMem{}, 7, nil)
	if len(got) != 50 {
		t.Fatalf("duplicates = %d, want 50", len(got))
	}
}

func TestSplitsAndHeightGrowth(t *testing.T) {
	tr := newTree(64)
	n := maxLeaf * 3
	for i := 0; i < n; i++ {
		tr.Insert(int64(i), storage.TID{Page: uint32(i)})
	}
	if height(tr) < 2 {
		t.Fatalf("height = %d, want >= 2 after %d inserts", height(tr), n)
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	// All keys still reachable.
	for i := 0; i < n; i += 97 {
		if len(tr.Lookup(storage.NullMem{}, int64(i), nil)) != 1 {
			t.Fatalf("key %d lost after splits", i)
		}
	}
	if numNodes(tr, tr.root) < 4 {
		t.Fatalf("nodes = %d", numNodes(tr, tr.root))
	}
}

func TestRangeScan(t *testing.T) {
	tr := newTree(64)
	for i := 0; i < 5000; i++ {
		tr.Insert(int64(i*2), storage.TID{Page: uint32(i)}) // even keys
	}
	it := tr.Seek(storage.NullMem{}, 100, 200, nil)
	var keys []int64
	for {
		k, _, ok := it.Next(storage.NullMem{})
		if !ok {
			break
		}
		keys = append(keys, k)
	}
	if len(keys) != 51 { // 100..200 even
		t.Fatalf("range size = %d, want 51", len(keys))
	}
	for i, k := range keys {
		if k != int64(100+i*2) {
			t.Fatalf("keys out of order: %v", keys[:i+1])
		}
	}
}

func TestRangeScanAcrossLeaves(t *testing.T) {
	tr := newTree(64)
	n := maxLeaf * 2
	for i := 0; i < n; i++ {
		tr.Insert(int64(i), storage.TID{Page: uint32(i)})
	}
	it := tr.Seek(storage.NullMem{}, 0, int64(n), nil)
	count := 0
	prev := int64(-1)
	for {
		k, _, ok := it.Next(storage.NullMem{})
		if !ok {
			break
		}
		if k < prev {
			t.Fatal("scan not sorted across leaf boundary")
		}
		prev = k
		count++
	}
	if count != n {
		t.Fatalf("scanned %d, want %d", count, n)
	}
}

type countingMem struct{ loads, works uint64 }

func (c *countingMem) Load(memsys.Addr, int)  { c.loads++ }
func (c *countingMem) Store(memsys.Addr, int) {}
func (c *countingMem) Work(n uint64)          { c.works += n }

func TestChargedTraversalScalesWithHeight(t *testing.T) {
	tr := newTree(128)
	for i := 0; i < maxLeaf*4; i++ {
		tr.Insert(int64(i), storage.TID{})
	}
	m := &countingMem{}
	tr.Lookup(m, 5, nil)
	if m.loads == 0 || m.works == 0 {
		t.Fatal("traversal charged nothing")
	}
	// A lookup should cost O(height * log(fanout)) loads, well under 100.
	if m.loads > 100 {
		t.Fatalf("lookup charged %d loads", m.loads)
	}
}

func TestVisitReportsTouchedPages(t *testing.T) {
	tr := newTree(128)
	for i := 0; i < maxLeaf*4; i++ {
		tr.Insert(int64(i), storage.TID{})
	}
	var visited []int
	tr.Lookup(storage.NullMem{}, 5, func(pg int) { visited = append(visited, pg) })
	if len(visited) != height(tr) {
		t.Fatalf("visited %d pages, height %d", len(visited), height(tr))
	}
}

// Property: lookup finds exactly the inserted multiset for random keys.
func TestLookupMatchesReference(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		count := int(n%3000) + 10
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(count/200 + 16)
		ref := map[int64]int{}
		for i := 0; i < count; i++ {
			k := int64(rng.Intn(200)) // force duplicates
			tr.Insert(k, storage.TID{Page: uint32(i)})
			ref[k]++
		}
		for k, want := range ref {
			if len(tr.Lookup(storage.NullMem{}, k, nil)) != want {
				return false
			}
		}
		return tr.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: a full scan returns all keys in sorted order.
func TestFullScanSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(64)
		var keys []int64
		for i := 0; i < 4000; i++ {
			k := rng.Int63n(1 << 40)
			tr.Insert(k, storage.TID{})
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		it := tr.Seek(storage.NullMem{}, -1<<62, 1<<62, nil)
		for _, want := range keys {
			k, _, ok := it.Next(storage.NullMem{})
			if !ok || k != want {
				return false
			}
		}
		_, _, ok := it.Next(storage.NullMem{})
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRangeScan(t *testing.T) {
	tr := newTree(8)
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i*10), storage.TID{})
	}
	it := tr.Seek(storage.NullMem{}, 5, 9, nil) // gap between keys
	if _, _, ok := it.Next(storage.NullMem{}); ok {
		t.Fatal("empty range returned an entry")
	}
	it = tr.Seek(storage.NullMem{}, 2000, 3000, nil) // beyond max
	if _, _, ok := it.Next(storage.NullMem{}); ok {
		t.Fatal("past-the-end range returned an entry")
	}
}

func TestSeekBeforeMin(t *testing.T) {
	tr := newTree(8)
	tr.Insert(100, storage.TID{Page: 1})
	it := tr.Seek(storage.NullMem{}, -50, 200, nil)
	k, tid, ok := it.Next(storage.NullMem{})
	if !ok || k != 100 || tid.Page != 1 {
		t.Fatalf("got %d %v %v", k, tid, ok)
	}
}

func TestNegativeKeys(t *testing.T) {
	tr := newTree(8)
	for i := -100; i <= 100; i += 10 {
		tr.Insert(int64(i), storage.TID{Page: uint32(i + 200)})
	}
	got := tr.Lookup(storage.NullMem{}, -50, nil)
	if len(got) != 1 || got[0].Page != 150 {
		t.Fatalf("negative key lookup: %v", got)
	}
}

// Property: height and node count stay consistent with the entry count for
// sequential and random insert orders.
func TestStructureConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(128)
		n := 2000 + rng.Intn(4000)
		for i := 0; i < n; i++ {
			tr.Insert(rng.Int63n(1<<30), storage.TID{})
		}
		if tr.Len() != n {
			return false
		}
		// All entries reachable by a full scan.
		it := tr.Seek(storage.NullMem{}, 0, 1<<31, nil)
		count := 0
		for {
			_, _, ok := it.Next(storage.NullMem{})
			if !ok {
				break
			}
			count++
		}
		return count == n && numNodes(tr, tr.root) >= height(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
