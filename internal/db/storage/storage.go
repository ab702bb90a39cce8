// Package storage implements the bottom of the miniature DBMS: a shared
// buffer pool of slotted pages holding fixed-width binary tuples, in the
// style of the PostgreSQL releases the paper instrumented. The pool's bytes
// live in the simulated shared address space, so every field the executor
// touches is charged to the machine model at its real address.
package storage

import (
	"encoding/binary"
	"fmt"

	"dssmem/internal/memsys"
)

// PageSize is the database page size (PostgreSQL's 8 KiB).
const PageSize = 8192

// pageHeaderSize holds the slot count and padding at the start of each page.
const pageHeaderSize = 16

// Mem is the charging interface: the executor reports every simulated memory
// reference and every block of plain instructions through it. simos.Process
// implements it; NullMem discards (used while bulk-loading the database,
// which happens before the measured region).
type Mem interface {
	Load(addr memsys.Addr, size int)
	Store(addr memsys.Addr, size int)
	Work(n uint64)
}

// NullMem is a Mem that charges nothing.
type NullMem struct{}

// Load implements Mem.
func (NullMem) Load(memsys.Addr, int) {}

// Store implements Mem.
func (NullMem) Store(memsys.Addr, int) {}

// Work implements Mem.
func (NullMem) Work(uint64) {}

// Column describes one fixed-width attribute (width 4 or 8 bytes).
type Column struct {
	Name  string
	Width int
}

// Schema is an ordered set of columns with precomputed offsets.
type Schema struct {
	cols    []Column
	offsets []int
	width   int
}

// NewSchema builds a schema; widths must be 4 or 8.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: cols, offsets: make([]int, len(cols))}
	for i, c := range cols {
		if c.Width != 4 && c.Width != 8 {
			panic(fmt.Sprintf("storage: column %s width %d (want 4 or 8)", c.Name, c.Width))
		}
		s.offsets[i] = s.width
		s.width += c.Width
	}
	return s
}

// NumCols returns the column count.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns column i's description.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColIndex returns the index of the named column, or panics: schema lookups
// are code, not user input.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.cols {
		if c.Name == name {
			return i
		}
	}
	panic("storage: unknown column " + name)
}

// TupleWidth is the byte width of one tuple.
func (s *Schema) TupleWidth() int { return s.width }

// Offset is the byte offset of column i within a tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// TuplesPerPage is how many tuples fit on one page.
func (s *Schema) TuplesPerPage() int { return (PageSize - pageHeaderSize) / s.width }

// PageKind tags what a pool page holds, supporting the paper's taxonomy of
// DBMS data (record data, index data, metadata, private data).
type PageKind uint8

// Page kinds.
const (
	PageUnknown PageKind = iota
	PageRecord
	PageIndex
)

// TID names a tuple: pool page number and slot.
type TID struct {
	Page uint32
	Slot uint16
}

// Pool is the shared buffer pool: a contiguous array of pages whose backing
// bytes double as the simulated memory contents. The paper's configuration
// (512 MB pool for a ~400 MB database) means the whole database is resident,
// so the pool is sized to hold everything and never replaces.
type Pool struct {
	base  memsys.Addr
	data  []byte
	kinds []PageKind
	pages int
	used  int
}

// NewPool allocates a pool of the given page count at base in the shared
// region.
func NewPool(base memsys.Addr, pages int) *Pool {
	return &Pool{
		base:  base,
		data:  make([]byte, pages*PageSize),
		kinds: make([]PageKind, pages),
		pages: pages,
	}
}

// Base returns the pool's base address in the simulated address space.
func (p *Pool) Base() memsys.Addr { return p.base }

// Size returns the pool capacity in bytes.
func (p *Pool) Size() uint64 { return uint64(p.pages) * PageSize }

// Used returns the number of allocated pages.
func (p *Pool) Used() int { return p.used }

// AllocPage reserves the next free page and returns its number.
func (p *Pool) AllocPage() int {
	if p.used >= p.pages {
		panic("storage: buffer pool exhausted; size the pool to hold the database")
	}
	pg := p.used
	p.used++
	return pg
}

// MarkPage tags page pg with its kind.
func (p *Pool) MarkPage(pg int, kind PageKind) { p.kinds[pg] = kind }

// KindOf returns the page kind of pg (PageUnknown when out of range).
func (p *Pool) KindOf(pg int) PageKind {
	if pg < 0 || pg >= len(p.kinds) {
		return PageUnknown
	}
	return p.kinds[pg]
}

// KindOfAddr classifies a simulated address within the pool.
func (p *Pool) KindOfAddr(addr memsys.Addr) PageKind {
	if addr < p.base {
		return PageUnknown
	}
	return p.KindOf(int((addr - p.base) / PageSize))
}

// PageAddr returns the simulated address of page pg.
func (p *Pool) PageAddr(pg int) memsys.Addr {
	return p.base + memsys.Addr(pg)*PageSize
}

// PageBytes returns the backing bytes of page pg.
func (p *Pool) PageBytes(pg int) []byte {
	return p.data[pg*PageSize : (pg+1)*PageSize]
}

// slotCount reads the page's tuple count from its header.
func (p *Pool) slotCount(pg int) int {
	return int(binary.LittleEndian.Uint16(p.PageBytes(pg)))
}

func (p *Pool) setSlotCount(pg, n int) {
	binary.LittleEndian.PutUint16(p.PageBytes(pg), uint16(n))
}

// Heap is a heap file: an ordered list of pool pages of fixed-width tuples.
type Heap struct {
	pool   *Pool
	schema *Schema
	pages  []int
	count  int
}

// NewHeap creates an empty heap file in pool.
func NewHeap(pool *Pool, schema *Schema) *Heap {
	return &Heap{pool: pool, schema: schema}
}

// NumTuples returns the row count.
func (h *Heap) NumTuples() int { return h.count }

// NumPages returns the page count.
func (h *Heap) NumPages() int { return len(h.pages) }

// PoolPage returns the pool page number of the heap's i-th page.
func (h *Heap) PoolPage(i int) int { return h.pages[i] }

// Append adds a row (one int64 per column; 4-byte columns are truncated) and
// returns its TID. Append is a bulk-load operation: it charges nothing.
func (h *Heap) Append(vals []int64) TID {
	if len(vals) != h.schema.NumCols() {
		panic("storage: arity mismatch")
	}
	per := h.schema.TuplesPerPage()
	slot := h.count % per
	if slot == 0 {
		pg := h.pool.AllocPage()
		h.pool.MarkPage(pg, PageRecord)
		h.pages = append(h.pages, pg)
	}
	pg := h.pages[len(h.pages)-1]
	bytes := h.pool.PageBytes(pg)
	off := pageHeaderSize + slot*h.schema.TupleWidth()
	for i, v := range vals {
		o := off + h.schema.Offset(i)
		switch h.schema.Col(i).Width {
		case 4:
			binary.LittleEndian.PutUint32(bytes[o:], uint32(v))
		default:
			binary.LittleEndian.PutUint64(bytes[o:], uint64(v))
		}
	}
	h.pool.setSlotCount(pg, slot+1)
	h.count++
	return TID{Page: uint32(pg), Slot: uint16(slot)}
}

// SlotsOn returns the tuple count of the heap's i-th page (charging the
// header read).
func (h *Heap) SlotsOn(m Mem, i int) int {
	pg := h.pages[i]
	m.Load(h.pool.PageAddr(pg), 2)
	return h.pool.slotCount(pg)
}

// fieldAddr returns the simulated address and byte offset of a field.
func (h *Heap) fieldAddr(tid TID, col int) (memsys.Addr, int, int) {
	off := pageHeaderSize + int(tid.Slot)*h.schema.TupleWidth() + h.schema.Offset(col)
	return h.pool.PageAddr(int(tid.Page)) + memsys.Addr(off), int(tid.Page), off
}

// ReadField reads one column of the tuple at tid, charging the load.
func (h *Heap) ReadField(m Mem, tid TID, col int) int64 {
	addr, pg, off := h.fieldAddr(tid, col)
	w := h.schema.Col(col).Width
	m.Load(addr, w)
	bytes := h.pool.PageBytes(pg)
	if w == 4 {
		return int64(int32(binary.LittleEndian.Uint32(bytes[off:])))
	}
	return int64(binary.LittleEndian.Uint64(bytes[off:]))
}

// WriteField updates one column in place, charging the store.
func (h *Heap) WriteField(m Mem, tid TID, col int, v int64) {
	addr, pg, off := h.fieldAddr(tid, col)
	w := h.schema.Col(col).Width
	m.Store(addr, w)
	bytes := h.pool.PageBytes(pg)
	if w == 4 {
		binary.LittleEndian.PutUint32(bytes[off:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(bytes[off:], uint64(v))
	}
}

// TupleAddr returns the simulated address of the tuple header at tid (the
// location hint-bit writes touch).
func (h *Heap) TupleAddr(tid TID) memsys.Addr {
	off := pageHeaderSize + int(tid.Slot)*h.schema.TupleWidth()
	return h.pool.PageAddr(int(tid.Page)) + memsys.Addr(off)
}

// TIDOf returns the TID of global row r (rows are appended densely).
func (h *Heap) TIDOf(r int) TID {
	per := h.schema.TuplesPerPage()
	return TID{Page: uint32(h.pages[r/per]), Slot: uint16(r % per)}
}
