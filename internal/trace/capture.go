package trace

import (
	"io"

	"dssmem/internal/db/engine"
	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/tpch"
)

// captureProc satisfies the DBMS process interface while recording every
// charge into a trace. It runs with no machine underneath: time advances
// nominally so lock bookkeeping stays sane (single process, so no
// contention paths fire).
type captureProc struct {
	tw    *Writer
	clock uint64
}

func (p *captureProc) Load(addr memsys.Addr, size int)  { p.tw.Load(addr, size); p.clock += 2 }
func (p *captureProc) Store(addr memsys.Addr, size int) { p.tw.Store(addr, size); p.clock += 2 }
func (p *captureProc) Work(n uint64)                    { p.tw.Work(n); p.clock += n }
func (p *captureProc) Spin()                            { p.clock += 4 }
func (p *captureProc) Backoff()                         { p.clock += 100_000 }
func (p *captureProc) Now() uint64                      { return p.clock }

// CaptureQuery executes query q once, single-process, over data, recording
// the full reference stream (DBMS metadata, index, record and private
// accesses) into w. It returns the number of recorded events.
func CaptureQuery(w io.Writer, data *tpch.Data, q tpch.QueryID) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	db := engine.Open(engine.Config{PoolPages: tpch.PoolPagesFor(data)})
	tpch.Load(db, data)
	p := &captureProc{tw: tw}
	sess := db.NewSession(p, 0)
	tpch.Run(q, sess)
	if err := tw.Flush(); err != nil {
		return tw.Events(), err
	}
	return tw.Events(), nil
}

// MachineMem replays a trace onto one CPU of a machine model, advancing a
// local wall clock by the returned access cycles.
type MachineMem struct {
	M   *machine.Machine
	CPU int
	now uint64
}

// Load implements storage.Mem.
func (r *MachineMem) Load(addr memsys.Addr, size int) {
	r.now += r.M.Access(r.CPU, addr, size, false, r.now)
}

// Store implements storage.Mem.
func (r *MachineMem) Store(addr memsys.Addr, size int) {
	r.now += r.M.Access(r.CPU, addr, size, true, r.now)
}

// Work implements storage.Mem.
func (r *MachineMem) Work(n uint64) { r.now += r.M.InstrCycles(r.CPU, n) }

// Cycles returns the accumulated simulated time.
func (r *MachineMem) Cycles() uint64 { return r.now }
