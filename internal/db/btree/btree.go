// Package btree implements B+trees stored in buffer-pool pages, as
// PostgreSQL's nbtree stores index nodes in shared buffers. Tree nodes are
// page-sized, so index traversals have exactly the locality the paper
// discusses: "the nodes close to the root in the index tree are likely to be
// reused later".
//
// Keys are int64 (duplicates allowed); values are packed storage.TIDs.
package btree

import (
	"encoding/binary"

	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
)

const (
	headerSize = 16 // nkeys(2) isLeaf(1) pad(5) next(8)
	entrySize  = 16 // key(8) + value/child(8)
	// child0Off is where an internal node stores its leftmost child.
	child0Off = headerSize
	// maxLeaf is the leaf entry capacity.
	maxLeaf = (storage.PageSize - headerSize) / entrySize
	// maxInternal is the internal key capacity (one extra child pointer).
	maxInternal = (storage.PageSize - headerSize - 8) / entrySize
)

// PackTID encodes a TID as a value word.
func PackTID(t storage.TID) uint64 { return uint64(t.Page)<<16 | uint64(t.Slot) }

// UnpackTID decodes a value word.
func UnpackTID(v uint64) storage.TID {
	return storage.TID{Page: uint32(v >> 16), Slot: uint16(v & 0xffff)}
}

// Tree is a B+tree rooted in a pool page.
type Tree struct {
	pool *storage.Pool
	root int
	size int
}

// New creates an empty tree with a single leaf root.
func New(pool *storage.Pool) *Tree {
	t := &Tree{pool: pool}
	t.root = t.newNode(true)
	return t
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// --- raw node accessors (uncharged; charging versions add Mem loads) ---

func (t *Tree) newNode(leaf bool) int {
	pg := t.pool.AllocPage()
	t.pool.MarkPage(pg, storage.PageIndex)
	b := t.pool.PageBytes(pg)
	for i := range b[:headerSize] {
		b[i] = 0
	}
	if leaf {
		b[2] = 1
	}
	return pg
}

func (t *Tree) bytes(pg int) []byte { return t.pool.PageBytes(pg) }

func (t *Tree) nkeys(pg int) int { return int(binary.LittleEndian.Uint16(t.bytes(pg))) }

func (t *Tree) setNKeys(pg, n int) { binary.LittleEndian.PutUint16(t.bytes(pg), uint16(n)) }

func (t *Tree) isLeaf(pg int) bool { return t.bytes(pg)[2] == 1 }

// next returns the right sibling of a leaf (-1 if none).
func (t *Tree) next(pg int) int {
	v := binary.LittleEndian.Uint64(t.bytes(pg)[8:])
	return int(v) - 1
}

func (t *Tree) setNext(pg, next int) {
	binary.LittleEndian.PutUint64(t.bytes(pg)[8:], uint64(next+1))
}

func (t *Tree) entryOff(pg, i int) int {
	off := headerSize
	if !t.isLeaf(pg) {
		off += 8
	}
	return off + i*entrySize
}

func (t *Tree) keyAt(pg, i int) int64 {
	return int64(binary.LittleEndian.Uint64(t.bytes(pg)[t.entryOff(pg, i):]))
}

func (t *Tree) valAt(pg, i int) uint64 {
	return binary.LittleEndian.Uint64(t.bytes(pg)[t.entryOff(pg, i)+8:])
}

func (t *Tree) childAt(pg, i int) int {
	if i == 0 {
		return int(binary.LittleEndian.Uint64(t.bytes(pg)[child0Off:]))
	}
	return int(t.valAt(pg, i-1))
}

func (t *Tree) setChild0(pg, child int) {
	binary.LittleEndian.PutUint64(t.bytes(pg)[child0Off:], uint64(child))
}

func (t *Tree) setEntry(pg, i int, key int64, val uint64) {
	off := t.entryOff(pg, i)
	binary.LittleEndian.PutUint64(t.bytes(pg)[off:], uint64(key))
	binary.LittleEndian.PutUint64(t.bytes(pg)[off+8:], val)
}

// insertEntryAt shifts entries right and writes (key,val) at position i.
func (t *Tree) insertEntryAt(pg, i int, key int64, val uint64) {
	n := t.nkeys(pg)
	start := t.entryOff(pg, i)
	end := t.entryOff(pg, n)
	b := t.bytes(pg)
	copy(b[start+entrySize:end+entrySize], b[start:end])
	t.setEntry(pg, i, key, val)
	t.setNKeys(pg, n+1)
}

// upperBound returns the first position whose key is > key.
func (t *Tree) upperBound(pg int, key int64) int {
	lo, hi := 0, t.nkeys(pg)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keyAt(pg, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first position whose key is >= key.
func (t *Tree) lowerBound(pg int, key int64) int {
	lo, hi := 0, t.nkeys(pg)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keyAt(pg, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key → tid). Inserts are bulk-load time and charge nothing;
// queries in this workload are read-only, as in the paper.
func (t *Tree) Insert(key int64, tid storage.TID) {
	sk, np, split := t.insert(t.root, key, PackTID(tid))
	if split {
		newRoot := t.newNode(false)
		t.setChild0(newRoot, t.root)
		t.insertEntryAt(newRoot, 0, sk, uint64(np))
		t.root = newRoot
	}
	t.size++
}

func (t *Tree) insert(pg int, key int64, val uint64) (int64, int, bool) {
	if t.isLeaf(pg) {
		i := t.upperBound(pg, key)
		t.insertEntryAt(pg, i, key, val)
		if t.nkeys(pg) <= maxLeaf-1 {
			return 0, 0, false
		}
		return t.splitLeaf(pg)
	}
	ci := t.upperBound(pg, key)
	sk, np, split := t.insert(t.childAt(pg, ci), key, val)
	if !split {
		return 0, 0, false
	}
	t.insertEntryAt(pg, ci, sk, uint64(np))
	if t.nkeys(pg) <= maxInternal-1 {
		return 0, 0, false
	}
	return t.splitInternal(pg)
}

func (t *Tree) splitLeaf(pg int) (int64, int, bool) {
	n := t.nkeys(pg)
	mid := n / 2
	np := t.newNode(true)
	src := t.bytes(pg)
	dst := t.bytes(np)
	copy(dst[headerSize:], src[t.entryOff(pg, mid):t.entryOff(pg, n)])
	t.setNKeys(np, n-mid)
	t.setNKeys(pg, mid)
	t.setNext(np, t.next(pg))
	t.setNext(pg, np)
	return t.keyAt(np, 0), np, true
}

func (t *Tree) splitInternal(pg int) (int64, int, bool) {
	n := t.nkeys(pg)
	mid := n / 2
	sepKey := t.keyAt(pg, mid)
	np := t.newNode(false)
	t.setChild0(np, int(t.valAt(pg, mid)))
	src := t.bytes(pg)
	dst := t.bytes(np)
	copy(dst[headerSize+8:], src[t.entryOff(pg, mid+1):t.entryOff(pg, n)])
	t.setNKeys(np, n-mid-1)
	t.setNKeys(pg, mid)
	return sepKey, np, true
}

// --- charged traversal ---

// descend walks from the root to the leaf that may contain key, charging the
// node header and the binary-search key probes, and invoking visit for each
// page touched (the engine pins index pages like heap pages).
func (t *Tree) descend(m storage.Mem, key int64, visit func(pg int)) int {
	pg := t.root
	for {
		if visit != nil {
			visit(pg)
		}
		m.Load(t.pool.PageAddr(pg), 8) // node header
		// Charged binary search: one key probe per halving.
		lo, hi := 0, t.nkeys(pg)
		for lo < hi {
			mid := (lo + hi) / 2
			m.Load(t.pool.PageAddr(pg)+memsys.Addr(t.entryOff(pg, mid)), 8)
			m.Work(12)
			if t.keyAt(pg, mid) < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if t.isLeaf(pg) {
			return pg
		}
		// Route left on equality (lower bound): with duplicate keys the run
		// may start left of an equal separator; the leaf chain covers the
		// rest. The probes above already paid for this comparison.
		ci := t.lowerBound(pg, key)
		if ci > 0 {
			m.Load(t.pool.PageAddr(pg)+memsys.Addr(t.entryOff(pg, ci-1)+8), 8)
		} else {
			m.Load(t.pool.PageAddr(pg)+memsys.Addr(child0Off), 8)
		}
		pg = t.childAt(pg, ci)
	}
}

// Iterator walks entries with keys in [lo, hi] in order.
type Iterator struct {
	t       *Tree
	pg, idx int
	hi      int64
	visit   func(pg int)
}

// Seek positions an iterator at the first entry with key >= lo; visit (may be
// nil) is called for every index page the scan touches, letting the engine
// charge page pins. The iterator is returned by value so a probe allocates
// nothing.
func (t *Tree) Seek(m storage.Mem, lo, hi int64, visit func(pg int)) Iterator {
	pg := t.descend(m, lo, visit)
	idx := t.lowerBound(pg, lo)
	return Iterator{t: t, pg: pg, idx: idx, hi: hi, visit: visit}
}

// Next returns the next entry within the range. ok=false at the end.
func (it *Iterator) Next(m storage.Mem) (key int64, tid storage.TID, ok bool) {
	t := it.t
	for {
		if it.idx >= t.nkeys(it.pg) {
			nxt := t.next(it.pg)
			m.Load(t.pool.PageAddr(it.pg)+8, 8) // follow the leaf chain
			if nxt < 0 {
				return 0, storage.TID{}, false
			}
			it.pg, it.idx = nxt, 0
			if it.visit != nil {
				it.visit(it.pg)
			}
			continue
		}
		off := t.entryOff(it.pg, it.idx)
		m.Load(t.pool.PageAddr(it.pg)+memsys.Addr(off), entrySize)
		m.Work(25)
		k := t.keyAt(it.pg, it.idx)
		if k > it.hi {
			return 0, storage.TID{}, false
		}
		v := t.valAt(it.pg, it.idx)
		it.idx++
		return k, UnpackTID(v), true
	}
}

// Lookup returns the TIDs for an exact key (duplicates included), charging the
// traversal to m.
func (t *Tree) Lookup(m storage.Mem, key int64, visit func(pg int)) []storage.TID {
	var out []storage.TID
	it := t.Seek(m, key, key, visit)
	for {
		_, tid, ok := it.Next(m)
		if !ok {
			return out
		}
		out = append(out, tid)
	}
}
