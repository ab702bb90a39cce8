// Package trace captures and replays memory-reference traces. The authors'
// companion study ("A Trace-driven Analysis of Sharing Behavior in TPC-C")
// worked from such traces; here a query's reference stream can be recorded
// once and replayed against any machine model without re-running the DBMS —
// trace-driven simulation as a complement to the execution-driven mode.
//
// The format is a compact byte stream: one opcode byte per event, with
// zigzag-varint address deltas so sequential scans compress well.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dssmem/internal/db/storage"
	"dssmem/internal/memsys"
)

// Op codes.
const (
	opLoad byte = iota
	opStore
	opWork
)

// header identifies trace files.
var header = []byte("DSSTRC1\n")

// Writer records a reference stream. It implements the charging interface
// (storage.Mem), so it can be slotted anywhere a Mem goes.
type Writer struct {
	w        *bufio.Writer
	lastAddr uint64
	events   uint64
	err      error
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(header); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Events returns the number of recorded events.
func (t *Writer) Events() uint64 { return t.events }

// Err returns the first write error. Emit paths are silent (they implement
// the charging interface, which has no error returns), so the error is
// deferred: it sticks here and on Flush, and recording stops at the first
// failure — callers must check one of the two.
func (t *Writer) Err() error { return t.err }

// Flush completes the trace. It surfaces the first deferred write error,
// including one that bufio only detects while flushing its final buffer;
// after a failed Flush, Err reports the same error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	if err := t.w.Flush(); err != nil {
		t.err = err
	}
	return t.err
}

func (t *Writer) emit(op byte, a, b uint64) {
	if t.err != nil {
		return
	}
	var buf [21]byte
	buf[0] = op
	n := 1
	n += binary.PutUvarint(buf[n:], a)
	if op != opWork {
		n += binary.PutUvarint(buf[n:], b)
	}
	if _, err := t.w.Write(buf[:n]); err != nil {
		t.err = err
		return
	}
	t.events++
}

func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (t *Writer) delta(addr memsys.Addr) uint64 {
	d := int64(uint64(addr) - t.lastAddr)
	t.lastAddr = uint64(addr)
	return zigzag(d)
}

// Load implements the charging interface.
func (t *Writer) Load(addr memsys.Addr, size int) { t.emit(opLoad, t.delta(addr), uint64(size)) }

// Store implements the charging interface.
func (t *Writer) Store(addr memsys.Addr, size int) { t.emit(opStore, t.delta(addr), uint64(size)) }

// Work implements the charging interface.
func (t *Writer) Work(n uint64) { t.emit(opWork, n, 0) }

// Replay streams a trace into mem and returns the number of events.
func Replay(r io.Reader, mem storage.Mem) (uint64, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(header))
	if _, err := io.ReadFull(br, head); err != nil {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	for i := range header {
		if head[i] != header[i] {
			return 0, errors.New("trace: bad magic (not a DSSTRC1 trace)")
		}
	}
	var events uint64
	var last uint64
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return events, fmt.Errorf("trace: truncated event %d: %w", events, err)
		}
		switch op {
		case opWork:
			mem.Work(a)
		case opLoad, opStore:
			b, err := binary.ReadUvarint(br)
			if err != nil {
				return events, fmt.Errorf("trace: truncated event %d: %w", events, err)
			}
			// The DBMS charges at most 16 bytes per access, and mem walks
			// every line an access spans: an unchecked size hangs a replay.
			if b == 0 || b > memsys.PageSize {
				return events, fmt.Errorf("trace: event %d: access size %d outside 1..%d", events, b, memsys.PageSize)
			}
			last = uint64(int64(last) + unzigzag(a))
			if op == opLoad {
				mem.Load(memsys.Addr(last), int(b))
			} else {
				mem.Store(memsys.Addr(last), int(b))
			}
		default:
			return events, fmt.Errorf("trace: unknown opcode %d at event %d", op, events)
		}
		events++
	}
}

// Stats summarizes a trace without replaying it into a machine.
type Stats struct {
	Loads, Stores, WorkOps uint64
	Instructions           uint64 // work + one per memory reference
	DistinctLines          int    // at 64-byte granularity
}

// Analyze scans a trace and reports its composition.
func Analyze(r io.Reader) (Stats, error) {
	var st Stats
	lines := make(map[uint64]struct{})
	counter := analyzeMem{st: &st, lines: lines}
	if _, err := Replay(r, &counter); err != nil {
		return st, err
	}
	st.DistinctLines = len(lines)
	st.Instructions = st.Loads + st.Stores + counter.work
	return st, nil
}

type analyzeMem struct {
	st    *Stats
	lines map[uint64]struct{}
	work  uint64
}

func (a *analyzeMem) Load(addr memsys.Addr, size int) {
	a.st.Loads++
	a.lines[uint64(addr)>>6] = struct{}{}
}

func (a *analyzeMem) Store(addr memsys.Addr, size int) {
	a.st.Stores++
	a.lines[uint64(addr)>>6] = struct{}{}
}

func (a *analyzeMem) Work(n uint64) {
	a.st.WorkOps++
	a.work += n
}
