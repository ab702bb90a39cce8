package machine

import (
	"fmt"

	"dssmem/internal/cache"
	"dssmem/internal/coherence"
	"dssmem/internal/memsys"
	"dssmem/internal/obs"
	"dssmem/internal/perfctr"
)

// Machine is a simulated shared-memory multiprocessor. All methods are
// single-threaded by construction: the simulation kernel serializes the
// processes that drive it.
type Machine struct {
	spec Spec
	l1   []*cache.Cache
	l2   []*cache.Cache // nil when single-level
	dir  *coherence.Directory
	ctrs []perfctr.Counters

	// sub-line factor between protocol (outer) lines and L1 lines
	// (a power of two; outerShift is its log2, used on the hot path).
	l1PerOuter uint64
	outerShift uint
	baseCycles uint64 // per-instruction cycles, uint64(BaseCPI + 0.5)
	// cpiIntegral lets InstrCycles use integer math when BaseCPI is a whole
	// number (every shipped spec); n*baseCycles is then exactly
	// uint64(float64(n)*BaseCPI + 0.5) for any plausible n.
	cpiIntegral bool
}

// New builds a machine from its spec; it panics on invalid specs (specs are
// constructed in code).
func New(spec Spec) *Machine {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{spec: spec}
	views := make([]coherence.CoherentCache, spec.CPUs)
	nodeOf := make([]int, spec.CPUs)
	m.l1 = make([]*cache.Cache, spec.CPUs)
	if spec.L2 != nil {
		m.l2 = make([]*cache.Cache, spec.CPUs)
	}
	protoLine := spec.L1.LineSize
	if spec.L2 != nil {
		protoLine = spec.L2.LineSize
	}
	m.l1PerOuter = uint64(protoLine / spec.L1.LineSize)
	for 1<<m.outerShift < m.l1PerOuter {
		m.outerShift++
	}
	if 1<<m.outerShift != m.l1PerOuter {
		panic(fmt.Sprintf("machine: L2/L1 line ratio %d not a power of two", m.l1PerOuter))
	}
	m.baseCycles = uint64(spec.BaseCPI + 0.5)
	m.cpiIntegral = float64(m.baseCycles) == spec.BaseCPI
	for i := 0; i < spec.CPUs; i++ {
		m.l1[i] = cache.New(spec.L1)
		if spec.L2 != nil {
			m.l2[i] = cache.New(*spec.L2)
			views[i] = &hierarchyView{l1: m.l1[i], l2: m.l2[i], l1PerOuter: m.l1PerOuter}
		} else {
			views[i] = m.l1[i]
		}
		nodeOf[i] = spec.CPUNode(i)
	}
	m.dir = coherence.NewDirectory(coherence.Config{
		Params:       spec.Protocol,
		Placement:    spec.placement(),
		Net:          spec.network(),
		NodeOf:       nodeOf,
		Caches:       views,
		LineSize:     protoLine,
		SharedLimit:  spec.SharedLimit,
		MemOccupancy: spec.MemOccupancy,
	})
	m.ctrs = make([]perfctr.Counters, spec.CPUs)
	return m
}

// Spec returns the machine description.
func (m *Machine) Spec() Spec { return m.spec }

// Observe attaches an observer to the machine's protocol engine: every
// directory transaction becomes a memory-request span and every coherence
// invalidation an instant event on the requesting CPU's track (CacheID and
// CPU index coincide by construction). A nil observer detaches the hooks.
func (m *Machine) Observe(o *obs.Observer) {
	if o == nil || !o.Config().Events {
		m.dir.Hooks = coherence.Hooks{}
		return
	}
	m.dir.Hooks.Request = func(c coherence.CacheID, write, upgrade bool, line, now uint64, r coherence.Result) {
		kind := "read"
		switch {
		case upgrade:
			kind = "upgrade"
		case write:
			kind = "write"
		}
		o.MemRequest(int(c), kind, line, now, r.Latency, r.Class.String(), r.Dirty3Hop)
	}
	m.dir.Hooks.Invalidate = func(req, target coherence.CacheID, line, now uint64) {
		o.Invalidation(int(req), int(target), line, now)
	}
}

// Directory exposes the coherence engine (for global stats and tests).
func (m *Machine) Directory() *coherence.Directory { return m.dir }

// Counters returns CPU c's performance-counter file.
func (m *Machine) Counters(c int) *perfctr.Counters { return &m.ctrs[c] }

// L1 returns CPU c's first-level cache (tests/stats).
func (m *Machine) L1(c int) *cache.Cache { return m.l1[c] }

// L2 returns CPU c's second-level cache or nil.
func (m *Machine) L2(c int) *cache.Cache {
	if m.l2 == nil {
		return nil
	}
	return m.l2[c]
}

// InstrCycles returns the pipeline cycles for n instructions (perfect-memory
// component) and counts them on CPU c.
func (m *Machine) InstrCycles(c int, n uint64) uint64 {
	m.ctrs[c].Instructions += n
	var cyc uint64
	if m.cpiIntegral {
		cyc = n * m.baseCycles
	} else {
		cyc = uint64(float64(n)*m.spec.BaseCPI + 0.5)
	}
	m.ctrs[c].Cycles += cyc
	return cyc
}

// Access performs one memory instruction (load or store) of size bytes at
// addr on CPU c at simulated time now, and returns the cycles the CPU spends
// on it: one instruction slot plus the stall share of any miss latency.
// Accesses that straddle line boundaries touch every affected line.
func (m *Machine) Access(c int, addr memsys.Addr, size int, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	ct.Instructions++
	if write {
		ct.Stores++
	} else {
		ct.Loads++
	}
	cycles := m.baseCycles
	if size <= 0 {
		size = 1
	}
	l1 := m.l1[c]
	first := l1.LineOf(uint64(addr))
	last := l1.LineOf(uint64(addr) + uint64(size) - 1)
	for line := first; line <= last; line++ {
		cycles += m.accessLine(c, line, write, now+cycles)
	}
	ct.Cycles += cycles
	return cycles
}

// accessLine handles one L1-line reference and returns its stall cycles.
func (m *Machine) accessLine(c int, l1line uint64, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	l1 := m.l1[c]
	st, hit := l1.Lookup(l1line, write)
	if hit {
		if !write {
			return 0
		}
		switch st {
		case cache.Modified:
			return 0
		case cache.Exclusive:
			l1.SetState(l1line, cache.Modified)
			m.markOuterDirty(c, l1line)
			return 0
		default: // Shared: needs ownership
			return m.upgrade(c, l1line, now)
		}
	}
	ct.L1DMisses++
	if m.l2 == nil {
		return m.outerMiss(c, l1line, write, now)
	}
	return m.l2Access(c, l1line, write, now)
}

// l2Access services an L1 miss against the L2 (Origin path).
func (m *Machine) l2Access(c int, l1line uint64, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	l2 := m.l2[c]
	outerLine := l1line >> m.outerShift
	st, hit := l2.Lookup(outerLine, write)
	if hit {
		stall := m.spec.L2HitCycles
		if write && st == cache.Shared {
			stall += m.upgradeOuter(c, outerLine, now)
			st = cache.Modified
		} else if write && st == cache.Exclusive {
			l2.SetState(outerLine, cache.Modified)
			st = cache.Modified
		}
		m.installL1(c, l1line, l1State(st, write))
		return stall
	}
	ct.L2DMisses++
	stall := m.spec.L2HitCycles + m.outerFetch(c, outerLine, write, now)
	grant := m.l2[c].StateOf(outerLine)
	m.installL1(c, l1line, l1State(grant, write))
	return stall
}

// l1State derives the L1 install state from the outer-level state.
func l1State(outer cache.State, write bool) cache.State {
	if write {
		return cache.Modified
	}
	switch outer {
	case cache.Modified, cache.Exclusive:
		return cache.Exclusive
	default:
		return cache.Shared
	}
}

// installL1 inserts a line into L1, handling the dirty-victim writeback into
// L2 (or the directory on single-level machines — not used there).
func (m *Machine) installL1(c int, l1line uint64, st cache.State) {
	v := m.l1[c].Insert(l1line, st)
	if v.State == cache.Invalid {
		return
	}
	if v.State.Dirty() && m.l2 != nil {
		// Write the dirty sub-block back into the covering L2 line.
		m.l2[c].MarkModified(v.Line >> m.outerShift)
	}
	if st == cache.Modified {
		m.markOuterDirty(c, l1line)
	}
}

// markOuterDirty propagates an L1 write into the covering outer-level state
// so the protocol (which acts at outer granularity) sees the line as dirty.
func (m *Machine) markOuterDirty(c int, l1line uint64) {
	if m.l2 == nil {
		return
	}
	m.l2[c].MarkModified(l1line >> m.outerShift)
}

// outerMiss handles a miss in the outermost (coherent) cache for single-level
// machines: consult the directory, install, and account stalls.
func (m *Machine) outerMiss(c int, line uint64, write bool, now uint64) uint64 {
	return m.outerFetch(c, line, write, now)
}

// outerFetch performs the directory transaction for an outer-level miss and
// installs the granted line into the outer cache.
func (m *Machine) outerFetch(c int, line uint64, write bool, now uint64) uint64 {
	ct := &m.ctrs[c]
	var r coherence.Result
	if write {
		r = m.dir.Write(coherence.CacheID(c), line, now)
	} else {
		r = m.dir.Read(coherence.CacheID(c), line, now)
	}
	ct.MemRequests++
	ct.MemLatencyCycles += r.Latency
	switch r.Class {
	case coherence.Cold:
		ct.ColdMisses++
	case coherence.Capacity:
		ct.CapacityMisses++
	case coherence.Coherence:
		ct.CoherenceMisses++
	}
	if r.Dirty3Hop {
		ct.Dirty3HopMisses++
	}

	outer := m.outerCache(c)
	v := outer.Insert(line, r.Grant)
	if v.State != cache.Invalid {
		m.dir.Evict(coherence.CacheID(c), v.Line, v.State.Dirty(), now)
		if m.l2 != nil {
			// Inclusion: back-invalidate the L1 sub-blocks of the victim.
			m.backInvalidateL1(c, v.Line)
		}
	}

	factor := m.spec.ReadStallFactor
	if write {
		factor = m.spec.WriteStallFactor
	}
	stall := uint64(float64(r.Latency)*factor + 0.5)
	ct.StallCycles += stall
	return stall
}

// upgrade handles a write hit on a Shared L1 line (single- or multi-level).
func (m *Machine) upgrade(c int, l1line uint64, now uint64) uint64 {
	if m.l2 == nil {
		stall := m.upgradeOuter(c, l1line, now)
		m.l1[c].SetState(l1line, cache.Modified)
		return stall
	}
	outer := l1line >> m.outerShift
	stall := m.spec.L2HitCycles
	if m.l2[c].StateOf(outer) == cache.Shared {
		stall += m.upgradeOuter(c, outer, now)
	} else if m.l2[c].StateOf(outer) != cache.Invalid {
		m.l2[c].SetState(outer, cache.Modified)
	}
	m.l1[c].SetState(l1line, cache.Modified)
	return stall
}

// upgradeOuter performs the directory upgrade for the outer cache.
func (m *Machine) upgradeOuter(c int, outerLine uint64, now uint64) uint64 {
	ct := &m.ctrs[c]
	r := m.dir.Upgrade(coherence.CacheID(c), outerLine, now)
	ct.Upgrades++
	ct.MemRequests++
	ct.MemLatencyCycles += r.Latency
	outer := m.outerCache(c)
	if outer.StateOf(outerLine) != cache.Invalid {
		outer.SetState(outerLine, r.Grant)
	} else {
		v := outer.Insert(outerLine, r.Grant)
		if v.State != cache.Invalid {
			m.dir.Evict(coherence.CacheID(c), v.Line, v.State.Dirty(), now)
			if m.l2 != nil {
				m.backInvalidateL1(c, v.Line)
			}
		}
	}
	stall := uint64(float64(r.Latency)*m.spec.WriteStallFactor + 0.5)
	ct.StallCycles += stall
	return stall
}

// hierarchyView exposes a two-level hierarchy to the directory at protocol
// (L2-line) granularity, forwarding coherence actions to the L1 sub-blocks so
// inclusion holds even under remote invalidations.
type hierarchyView struct {
	l1, l2     *cache.Cache
	l1PerOuter uint64
}

// StateOf implements coherence.CoherentCache. The L2 state is authoritative:
// L1 writes are propagated into the L2 state eagerly (markOuterDirty).
func (h *hierarchyView) StateOf(line uint64) cache.State { return h.l2.StateOf(line) }

// Invalidate implements coherence.CoherentCache.
func (h *hierarchyView) Invalidate(line uint64) cache.State {
	st := h.l2.Invalidate(line)
	base := line * h.l1PerOuter
	for i := uint64(0); i < h.l1PerOuter; i++ {
		h.l1.Invalidate(base + i)
	}
	return st
}

// Downgrade implements coherence.CoherentCache.
func (h *hierarchyView) Downgrade(line uint64) cache.State {
	st := h.l2.Downgrade(line)
	base := line * h.l1PerOuter
	for i := uint64(0); i < h.l1PerOuter; i++ {
		h.l1.Downgrade(base + i)
	}
	return st
}

func (m *Machine) outerCache(c int) *cache.Cache {
	if m.l2 != nil {
		return m.l2[c]
	}
	return m.l1[c]
}

// backInvalidateL1 removes the L1 sub-blocks covered by an evicted outer line
// (inclusion property).
func (m *Machine) backInvalidateL1(c int, outerLine uint64) {
	base := outerLine * m.l1PerOuter
	for i := uint64(0); i < m.l1PerOuter; i++ {
		m.l1[c].Invalidate(base + i)
	}
}

// FlushFraction models context-switch cache pollution on CPU c: a fraction of
// each cache level is displaced by kernel/scheduler footprint. Directory
// state is kept consistent (dirty outer victims write back).
func (m *Machine) FlushFraction(c int, frac float64, now uint64) {
	if m.l2 != nil {
		for _, v := range m.l1[c].FlushFraction(frac) {
			if v.State.Dirty() {
				outer := v.Line >> m.outerShift
				if m.l2[c].StateOf(outer) != cache.Invalid {
					m.l2[c].SetState(outer, cache.Modified)
				}
			}
		}
	}
	for _, v := range m.outerCache(c).FlushFraction(frac) {
		m.dir.Evict(coherence.CacheID(c), v.Line, v.State.Dirty(), now)
		if m.l2 != nil {
			m.backInvalidateL1(c, v.Line)
		}
	}
}

// ResetCounters zeroes all CPU counter files (start of a measured region).
func (m *Machine) ResetCounters() {
	for i := range m.ctrs {
		m.ctrs[i] = perfctr.Counters{}
	}
}

// CyclesToSeconds converts this machine's cycles to wall seconds.
func (m *Machine) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / (float64(m.spec.ClockMHz) * 1e6)
}
