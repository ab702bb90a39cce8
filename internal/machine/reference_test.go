package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"dssmem/internal/cache"
	"dssmem/internal/coherence"
	"dssmem/internal/memsys"
	"dssmem/internal/perfctr"
)

// refCache is a plainly written true-LRU cache: a map from each resident
// line to its state and the tick of its last use. It has no ways, so it says
// whether and in what state a line is resident, never where.
type refCache struct {
	sets, assoc uint64
	tick        int
	lines       map[uint64]refLine
}

type refLine struct {
	st   cache.State
	used int
}

func newRefCache(cfg cache.Config) *refCache {
	return &refCache{sets: uint64(cfg.Sets()), assoc: uint64(cfg.Assoc), lines: map[uint64]refLine{}}
}

// lookup returns line's state (Invalid when absent) and, on a hit, makes it
// the most recently used line.
func (r *refCache) lookup(line uint64) cache.State {
	l, ok := r.lines[line]
	if !ok {
		return cache.Invalid
	}
	r.tick++
	l.used = r.tick
	r.lines[line] = l
	return l.st
}

// insert makes the absent line resident in state st. When its set is full
// the set's least recently used line leaves first and is returned.
func (r *refCache) insert(line uint64, st cache.State) (victim uint64, vst cache.State) {
	var n uint64
	for l, x := range r.lines {
		if l%r.sets != line%r.sets {
			continue
		}
		n++
		if vst == cache.Invalid || x.used < r.lines[victim].used {
			victim, vst = l, x.st
		}
	}
	if n < r.assoc {
		victim, vst = 0, cache.Invalid
	} else {
		delete(r.lines, victim)
	}
	r.tick++
	r.lines[line] = refLine{st, r.tick}
	return victim, vst
}

// state returns line's state without LRU effects.
func (r *refCache) state(line uint64) cache.State { return r.lines[line].st }

// set changes the state of a resident line; an absent line stays absent.
func (r *refCache) set(line uint64, st cache.State) {
	if l, ok := r.lines[line]; ok {
		l.st = st
		r.lines[line] = l
	}
}

// drop removes line and returns its prior state.
func (r *refCache) drop(line uint64) cache.State {
	st := r.lines[line].st
	delete(r.lines, line)
	return st
}

// refView is one CPU's reference hierarchy as the directory sees it: the
// outer level answers for a protocol line, and every coherence action also
// reaches each L1 line the protocol line covers.
type refView struct {
	l1, l2 *refCache // l2 is nil on a single-level machine
	ratio  uint64    // L1 lines per protocol line
}

func (v refView) outer() *refCache {
	if v.l2 != nil {
		return v.l2
	}
	return v.l1
}

func (v refView) StateOf(line uint64) cache.State { return v.outer().state(line) }

func (v refView) Invalidate(line uint64) cache.State {
	if v.l2 != nil {
		for i := uint64(0); i < v.ratio; i++ {
			v.l1.drop(line*v.ratio + i)
		}
	}
	return v.outer().drop(line)
}

func (v refView) Downgrade(line uint64) cache.State {
	if v.l2 != nil {
		for i := uint64(0); i < v.ratio; i++ {
			if st := v.l1.state(line*v.ratio + i); st == cache.Modified || st == cache.Exclusive {
				v.l1.set(line*v.ratio+i, cache.Shared)
			}
		}
	}
	st := v.outer().state(line)
	if st == cache.Modified || st == cache.Exclusive {
		v.outer().set(line, cache.Shared)
	}
	return st
}

// refMachine is a slow, plainly written Machine: map caches, explicit loops
// for inclusion, dirty propagation and back-invalidation, and its own
// directory built from the same spec.
type refMachine struct {
	spec  Spec
	views []refView
	dir   *coherence.Directory
	ctrs  []perfctr.Counters
}

func newRefMachine(spec Spec) *refMachine {
	r := &refMachine{spec: spec, ctrs: make([]perfctr.Counters, spec.CPUs)}
	protoLine := spec.L1.LineSize
	if spec.L2 != nil {
		protoLine = spec.L2.LineSize
	}
	caches := make([]coherence.CoherentCache, spec.CPUs)
	nodeOf := make([]int, spec.CPUs)
	for i := range caches {
		v := refView{l1: newRefCache(spec.L1), ratio: uint64(protoLine / spec.L1.LineSize)}
		if spec.L2 != nil {
			v.l2 = newRefCache(*spec.L2)
		}
		r.views = append(r.views, v)
		caches[i] = v
		nodeOf[i] = spec.CPUNode(i)
	}
	r.dir = coherence.NewDirectory(coherence.Config{
		Params:       spec.Protocol,
		Placement:    spec.placement(),
		Net:          spec.network(),
		NodeOf:       nodeOf,
		Caches:       caches,
		LineSize:     protoLine,
		SharedLimit:  spec.SharedLimit,
		MemOccupancy: spec.MemOccupancy,
	})
	return r
}

// access is Machine.Access.
func (r *refMachine) access(c int, addr memsys.Addr, size int, write bool, now uint64) uint64 {
	ct := &r.ctrs[c]
	ct.Instructions++
	if write {
		ct.Stores++
	} else {
		ct.Loads++
	}
	cycles := uint64(r.spec.BaseCPI + 0.5)
	if size <= 0 {
		size = 1
	}
	ls := uint64(r.spec.L1.LineSize)
	for line := uint64(addr) / ls; line <= (uint64(addr)+uint64(size)-1)/ls; line++ {
		cycles += r.line(c, line, write, now+cycles)
	}
	ct.Cycles += cycles
	return cycles
}

// line handles one L1-line reference and returns its stall cycles.
func (r *refMachine) line(c int, line uint64, write bool, now uint64) uint64 {
	v := r.views[c]
	outer := line / v.ratio
	if st := v.l1.lookup(line); st != cache.Invalid {
		if !write || st == cache.Modified {
			return 0
		}
		v.l1.set(line, cache.Modified)
		if v.l2 == nil {
			if st == cache.Shared {
				return r.upgrade(c, v.l1, line, now)
			}
			return 0
		}
		var stall uint64
		if st == cache.Shared {
			stall = r.spec.L2HitCycles
			if v.l2.state(outer) == cache.Shared {
				stall += r.upgrade(c, v.l2, outer, now)
			}
		}
		// A write reaches the L2 line at once: the protocol acts on L2
		// lines and must see it dirty.
		v.l2.set(outer, cache.Modified)
		return stall
	}
	r.ctrs[c].L1DMisses++
	if v.l2 == nil {
		stall, _ := r.fetch(c, line, write, now)
		return stall
	}
	stall := r.spec.L2HitCycles
	st := v.l2.lookup(outer)
	switch {
	case st == cache.Invalid:
		r.ctrs[c].L2DMisses++
		s, grant := r.fetch(c, outer, write, now)
		stall += s
		st = grant
	case write && st == cache.Shared:
		stall += r.upgrade(c, v.l2, outer, now)
	case write:
		v.l2.set(outer, cache.Modified)
	}
	in := cache.Shared
	switch {
	case write:
		in = cache.Modified
	case st == cache.Modified || st == cache.Exclusive:
		in = cache.Exclusive
	}
	// A dirty L1 victim writes back into its L2 line.
	if victim, vst := v.l1.insert(line, in); vst == cache.Modified {
		v.l2.set(victim/v.ratio, cache.Modified)
	}
	return stall
}

// fetch runs the directory transaction for an outer-level miss, installs
// the grant in the outer cache and evicts what that displaces, L1 lines
// included, and returns the stall and the grant.
func (r *refMachine) fetch(c int, line uint64, write bool, now uint64) (uint64, cache.State) {
	v := r.views[c]
	ct := &r.ctrs[c]
	var res coherence.Result
	if write {
		res = r.dir.Write(coherence.CacheID(c), line, now)
	} else {
		res = r.dir.Read(coherence.CacheID(c), line, now)
	}
	ct.MemRequests++
	ct.MemLatencyCycles += res.Latency
	switch res.Class {
	case coherence.Cold:
		ct.ColdMisses++
	case coherence.Capacity:
		ct.CapacityMisses++
	case coherence.Coherence:
		ct.CoherenceMisses++
	}
	if res.Dirty3Hop {
		ct.Dirty3HopMisses++
	}
	if victim, vst := v.outer().insert(line, res.Grant); vst != cache.Invalid {
		r.dir.Evict(coherence.CacheID(c), victim, vst == cache.Modified, now)
		if v.l2 != nil {
			for i := uint64(0); i < v.ratio; i++ {
				v.l1.drop(victim*v.ratio + i)
			}
		}
	}
	factor := r.spec.ReadStallFactor
	if write {
		factor = r.spec.WriteStallFactor
	}
	stall := uint64(float64(res.Latency)*factor + 0.5)
	ct.StallCycles += stall
	return stall, res.Grant
}

// upgrade runs the directory upgrade of a Shared line of rc, installs the
// grant and returns the stall.
func (r *refMachine) upgrade(c int, rc *refCache, line uint64, now uint64) uint64 {
	res := r.dir.Upgrade(coherence.CacheID(c), line, now)
	ct := &r.ctrs[c]
	ct.Upgrades++
	ct.MemRequests++
	ct.MemLatencyCycles += res.Latency
	rc.set(line, res.Grant)
	stall := uint64(float64(res.Latency)*r.spec.WriteStallFactor + 0.5)
	ct.StallCycles += stall
	return stall
}

// referenceSpecs returns the machines the reference checks, at cpus CPUs
// with caches so small that a few lines conflict: the Origin (128-byte L2
// lines over 32-byte L1 lines, speculative replies), Starfire
// (direct-mapped, plain MESI), an Origin whose L2 lines are as short as its
// L1 lines, an Origin whose caches have four ways (a custom geometry), the
// single-level, migratory V-Class, and that V-Class degraded to MSI as the
// estate ablation builds it (no Exclusive grant, so no migratory handoff).
func referenceSpecs(cpus int) []Spec {
	short := OriginSpec(cpus, 4096)
	l2 := *short.L2
	l2.LineSize = 32
	short.L2 = &l2
	short.Name += " with 32-byte L2 lines"
	wide := OriginSpec(cpus, 4096)
	wl2 := *wide.L2
	wl2.Assoc = 4
	wide.L1.Assoc, wide.L2 = 4, &wl2
	wide.Name += " with 4-way caches"
	msi := VClassSpec(cpus, 4096)
	msi.Protocol.NoExclusive = true
	msi.Protocol.Migratory = false
	msi.Name += " under MSI"
	return []Spec{OriginSpec(cpus, 4096), StarfireSpec(cpus, 4096), short, wide, VClassSpec(cpus, 4096), msi}
}

// TestMachineMatchesReference drives Machine and the reference machine with
// the same random streams of loads and stores over a few kilobytes on 2 to
// 4 CPUs. After every reference the returned cycles and the CPU's counter
// file must be equal; every 50 references and at the end, so must every
// cache's resident lines and their states, and the directories' Stats.
// FlushFraction is left out: it picks lines by physical way, which the
// reference does not have.
func TestMachineMatchesReference(t *testing.T) {
	const span, refs = 4096, 4000
	for _, spec := range referenceSpecs(4) {
		for seed := int64(0); seed < 4; seed++ {
			spec := spec
			spec.CPUs = 2 + int(seed%3)
			if err := matchReference(spec, rand.New(rand.NewSource(seed)), span, refs); err != nil {
				t.Fatalf("%s, %d CPUs, seed %d: %v", spec.Name, spec.CPUs, seed, err)
			}
		}
	}
}

func matchReference(spec Spec, rng *rand.Rand, span, refs int) error {
	m, r := New(spec), newRefMachine(spec)
	// Half the references go to eight hot addresses, so lines are reused,
	// shared and written as well as evicted.
	var hot [8]memsys.Addr
	for i := range hot {
		hot[i] = memsys.Addr(rng.Intn(span))
	}
	now := uint64(0)
	for n := 1; n <= refs; n++ {
		c := rng.Intn(spec.CPUs)
		addr := memsys.Addr(rng.Intn(span))
		if rng.Intn(2) == 0 {
			addr = hot[rng.Intn(len(hot))]
		}
		size := []int{1, 4, 8, 16}[rng.Intn(4)]
		write := rng.Intn(3) == 0
		got, want := m.Access(c, addr, size, write, now), r.access(c, addr, size, write, now)
		if got != want {
			return fmt.Errorf("reference %d (cpu %d, %#x+%d, write %v): %d cycles, reference %d", n, c, addr, size, write, got, want)
		}
		if *m.Counters(c) != r.ctrs[c] {
			return fmt.Errorf("reference %d: cpu %d counters\n got %+v\nwant %+v", n, c, *m.Counters(c), r.ctrs[c])
		}
		if n%50 == 0 || n == refs {
			if err := sameContents(m, r, span+16); err != nil {
				return fmt.Errorf("after reference %d: %w", n, err)
			}
		}
		now += uint64(rng.Intn(40))
	}
	return nil
}

// sameContents compares every cache of m with its reference over the lines
// of the first span bytes, and the directories' Stats.
func sameContents(m *Machine, r *refMachine, span int) error {
	cmp := func(name string, c *cache.Cache, rc *refCache) error {
		ls := c.Config().LineSize
		for l := uint64(0); l < uint64((span+ls-1)/ls); l++ {
			if got, want := c.StateOf(l), rc.state(l); got != want {
				return fmt.Errorf("%s line %#x: %v, reference %v", name, l, got, want)
			}
		}
		if c.ValidLines() != len(rc.lines) {
			return fmt.Errorf("%s holds %d lines, reference %d", name, c.ValidLines(), len(rc.lines))
		}
		return nil
	}
	for i, v := range r.views {
		if err := cmp(fmt.Sprintf("cpu %d L1", i), m.L1(i), v.l1); err != nil {
			return err
		}
		if v.l2 != nil {
			if err := cmp(fmt.Sprintf("cpu %d L2", i), m.L2(i), v.l2); err != nil {
				return err
			}
		}
	}
	if m.Directory().Stats != r.dir.Stats {
		return fmt.Errorf("directory stats\n got %+v\nwant %+v", m.Directory().Stats, r.dir.Stats)
	}
	return nil
}
