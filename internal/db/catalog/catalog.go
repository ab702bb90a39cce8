// Package catalog holds relation metadata in simulated shared memory. The
// paper's DBMS data taxonomy distinguishes record data, index data, metadata
// and private data; catalog entries are the metadata with high temporal
// locality ("private data and metadata both have temporal locality").
package catalog

import (
	"dssmem/internal/db/btree"
	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
)

// Relation describes one table: its heap, its indexes, and the address of its
// catalog tuple (pg_class row) in shared memory.
type Relation struct {
	ID       int
	Name     string
	Heap     *storage.Heap
	Indexes  map[string]*btree.Tree
	MetaAddr memsys.Addr

	// ScanSpan names the relation's sequential-scan operator span
	// ("scan:lineitem"); it and the index-scan names are built once, so
	// opening a span allocates nothing.
	ScanSpan   string
	indexSpans map[string]string
}

// Index returns the named index or panics (schema references are code).
func (r *Relation) Index(name string) *btree.Tree {
	ix := r.Indexes[name]
	if ix == nil {
		panic("catalog: relation " + r.Name + " has no index " + name)
	}
	return ix
}

// IndexSpan names the index-scan operator span of the named index
// ("ixscan:lineitem.lineitem_orderkey").
func (r *Relation) IndexSpan(name string) string { return r.indexSpans[name] }

// Catalog is the system catalog.
type Catalog struct {
	rels  map[string]*Relation
	byID  map[int]*Relation
	alloc *memsys.Allocator
	next  int
}

// New creates a catalog whose metadata tuples live at [base, base+size).
func New(base memsys.Addr, size uint64) *Catalog {
	return &Catalog{
		rels:  make(map[string]*Relation),
		byID:  make(map[int]*Relation),
		alloc: memsys.NewAllocator("catalog", base, size),
	}
}

// Create registers a relation over an existing heap.
func (c *Catalog) Create(name string, heap *storage.Heap) *Relation {
	if _, dup := c.rels[name]; dup {
		panic("catalog: duplicate relation " + name)
	}
	c.next++
	r := &Relation{
		ID:       c.next,
		Name:     name,
		Heap:     heap,
		Indexes:  make(map[string]*btree.Tree),
		MetaAddr: c.alloc.Alloc(128, 64), // one pg_class row, line-aligned

		ScanSpan:   "scan:" + name,
		indexSpans: make(map[string]string),
	}
	c.rels[name] = r
	c.byID[r.ID] = r
	return r
}

// AddIndex attaches an index to a relation.
func (c *Catalog) AddIndex(rel *Relation, name string, t *btree.Tree) {
	rel.Indexes[name] = t
	rel.indexSpans[name] = "ixscan:" + rel.Name + "." + name
}

// Lookup resolves a relation by name, charging the metadata reads a real
// catalog probe performs (syscache lookups of the pg_class row).
func (c *Catalog) Lookup(m storage.Mem, name string) *Relation {
	r := c.rels[name]
	if r == nil {
		panic("catalog: unknown relation " + name)
	}
	m.Work(40) // syscache hash + comparisons
	m.Load(r.MetaAddr, 8)
	m.Load(r.MetaAddr+8, 8)
	m.Load(r.MetaAddr+16, 8)
	return r
}

// Relations returns the number of registered relations.
func (c *Catalog) Relations() int { return len(c.rels) }
