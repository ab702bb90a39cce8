// Package coherence implements a directory-based MESI cache-coherence
// protocol with the two vendor-specific optimizations the paper leans on:
//
//   - the HP V-Class "migratory enhancement": a read miss to a line that is
//     dirty in another cache invalidates the owner and hands the requester an
//     exclusive (dirty) copy, so the read-modify-write sequences of lock
//     metadata pay one intervention instead of two;
//   - the SGI Origin 2000 "speculative reply": on a read miss to a line the
//     directory believes is owned, memory speculatively returns its copy in
//     parallel with the owner intervention; when the owner's copy is clean
//     (Exclusive, never written) the speculative reply is used and the miss
//     costs no more than a clean miss.
//
// The directory also classifies every miss as cold, capacity/conflict, or
// coherence (communication), which is how the paper separates "normal cold
// start and capacity misses" from "misses caused by communication".
package coherence

import (
	"fmt"

	"dssmem/internal/cache"
	"dssmem/internal/interconnect"
	"dssmem/internal/memsys"
)

// CacheID identifies one coherent cache (the outermost level of one CPU).
type CacheID int

// CoherentCache is the view the directory needs of each CPU's cache
// hierarchy, at protocol-line granularity. Multi-level hierarchies implement
// it by forwarding coherence actions to inner levels (inclusion).
type CoherentCache interface {
	// StateOf returns the (outer-level) state of line, Invalid if absent.
	StateOf(line uint64) cache.State
	// Invalidate removes line from the whole hierarchy, returning the prior
	// outer-level state.
	Invalidate(line uint64) cache.State
	// Downgrade moves line from M/E to S throughout the hierarchy and returns
	// the prior outer-level state.
	Downgrade(line uint64) cache.State
}

// Class is the miss classification.
type Class uint8

// Miss classes.
const (
	Cold Class = iota
	Capacity
	Coherence
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Cold:
		return "cold"
	case Capacity:
		return "capacity"
	case Coherence:
		return "coherence"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Params are the protocol latency knobs, in CPU cycles.
type Params struct {
	MemAccess    uint64 // DRAM row access at the home
	DirAccess    uint64 // directory lookup/update
	CacheExtract uint64 // owner cache supplies a line (intervention service)
	InvalLatency uint64 // invalidation round trip added to writes on shared lines

	Migratory   bool // V-Class migratory enhancement
	Speculative bool // Origin speculative memory reply
	// NoExclusive degrades the protocol from MESI to MSI: cold reads are
	// granted Shared instead of Exclusive. An ablation knob: the E state is
	// what makes second readers pay an intervention (the Fig. 9 jump), and
	// what lets private data be written without an upgrade.
	NoExclusive bool
}

// Result reports the outcome of a protocol transaction.
type Result struct {
	Latency   uint64      // total memory-system latency in cycles
	Grant     cache.State // state the requester installs
	Class     Class       // miss classification
	Dirty3Hop bool        // involved a dirty-owner intervention
}

type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirOwned // exclusive in one cache (clean or dirty; E or M there)
)

type entry struct {
	state    dirState
	owner    int16
	ownerMod bool // owner known to have modified (granted M or migrated)
	// migratory marks lines whose sharing pattern is read-modify-write
	// hand-offs (observed as an upgrade after a shared read). Only these
	// lines take the migratory fast path; write-once/read-many data (e.g.
	// hint-bit-stamped record pages) stays on the normal MESI path, as the
	// V-Class's pattern detector arranged.
	migratory bool
	sharers   uint64 // bitmask of CacheIDs with (believed) S copies
	ever      uint64 // caches that have ever held the line (cold classification)
	inval     uint64 // caches whose copy was killed by coherence (comm. misses)
}

// Stats aggregates protocol events across all requesters. Per-requester
// events (requests, latency, miss classes, dirty 3-hop misses) are counted by
// the machine layer in each CPU's perfctr.Counters from the Results returned
// here.
type Stats struct {
	Reads, Writes, Upgrades uint64
	CleanMisses             uint64 // served by home memory (2-hop)
	CleanSharedGrants       uint64
	DirtyInterventions      uint64 // 3-hop, owner had modified data
	CleanInterventions      uint64 // 3-hop, owner had a clean-exclusive copy
	SpeculativeHits         uint64 // interventions short-circuited by speculation
	MigratoryTransfers      uint64 // dirty lines migrated with ownership
	InvalidationsSent       uint64
	Writebacks              uint64
	TotalLatency            uint64
	QueueWait               uint64 // portion of TotalLatency spent queueing
}

// Hooks observe individual protocol transactions as they happen (the obs
// layer's structured event trace). Nil fields cost one nil check per
// transaction; set them before the run starts — the simulation kernel
// serializes all protocol activity, so hooks need no locking.
type Hooks struct {
	// Request fires once per Read/Write/Upgrade with the final Result.
	// upgrade implies write. An Upgrade that races with an invalidation and
	// falls back to a full write miss reports as a write.
	Request func(c CacheID, write, upgrade bool, line, now uint64, r Result)
	// Invalidate fires once per remote copy killed by coherence activity,
	// attributed to the requester whose transaction caused it.
	Invalidate func(requester, target CacheID, line, now uint64)
}

// Directory is the protocol engine. One instance serves one machine. Not safe
// for concurrent use; the simulation kernel serializes accesses.
type Directory struct {
	params    Params
	placement memsys.Placement
	net       interconnect.Network
	nodeOf    []int                  // CacheID -> network endpoint/node
	mem       []*interconnect.Server // per home node
	caches    []CoherentCache        // per-CPU hierarchy views
	lineShift uint

	dense  []entry          // lines of the shared region, index = line number
	sparse map[uint64]int32 // private-region lines: handle into slab
	slab   entrySlab
	Stats  Stats
	Hooks  Hooks
}

// entrySlab is a chunked arena of directory entries for the sparse (private)
// region. Entries are addressed by int32 handles; chunks never move once
// allocated, so handles stay valid across growth and the per-line heap
// allocation of the old map[uint64]*entry representation disappears — the
// only steady-state cost of a new private line is a map insert and, once per
// slabChunkSize lines, one chunk allocation.
type entrySlab struct {
	chunks [][]entry
}

const (
	slabChunkBits = 12 // 4096 entries (~256 KB) per chunk
	slabChunkSize = 1 << slabChunkBits
)

func (s *entrySlab) alloc() int32 {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == slabChunkSize {
		s.chunks = append(s.chunks, make([]entry, 0, slabChunkSize))
		n++
	}
	c := &s.chunks[n-1]
	*c = append(*c, entry{})
	return int32((n-1)<<slabChunkBits | (len(*c) - 1))
}

func (s *entrySlab) at(i int32) *entry {
	return &s.chunks[i>>slabChunkBits][i&(slabChunkSize-1)]
}

// Config assembles a Directory.
type Config struct {
	Params    Params
	Placement memsys.Placement
	Net       interconnect.Network
	NodeOf    []int           // node of each cache
	Caches    []CoherentCache // per-CPU coherent hierarchy views (index = CacheID)
	LineSize  int             // protocol granularity = outermost line size
	// SharedLimit bounds the shared-region bytes tracked densely; lines above
	// it (private regions) fall back to a map.
	SharedLimit uint64
	// MemOccupancy is the per-request occupancy of each home memory/directory
	// controller, the source of queueing contention.
	MemOccupancy uint64
}

// NewDirectory builds the protocol engine.
func NewDirectory(cfg Config) *Directory {
	if len(cfg.Caches) == 0 || len(cfg.NodeOf) != len(cfg.Caches) {
		panic("coherence: caches/nodeOf mismatch")
	}
	if len(cfg.Caches) > 64 {
		panic("coherence: at most 64 caches (bitmask sharers)")
	}
	ls := uint(0)
	for 1<<ls < cfg.LineSize {
		ls++
	}
	mem := make([]*interconnect.Server, cfg.Placement.Nodes())
	for i := range mem {
		mem[i] = &interconnect.Server{Occupancy: cfg.MemOccupancy}
	}
	return &Directory{
		params:    cfg.Params,
		placement: cfg.Placement,
		net:       cfg.Net,
		nodeOf:    cfg.NodeOf,
		mem:       mem,
		caches:    cfg.Caches,
		lineShift: ls,
		dense:     make([]entry, cfg.SharedLimit>>ls+1),
		sparse:    make(map[uint64]int32),
	}
}

// MemServers exposes the per-node memory servers (for inspection/tests).
func (d *Directory) MemServers() []*interconnect.Server { return d.mem }

func (d *Directory) entryFor(line uint64) *entry {
	if line < uint64(len(d.dense)) {
		return &d.dense[line]
	}
	if i, ok := d.sparse[line]; ok {
		return d.slab.at(i)
	}
	i := d.slab.alloc()
	d.sparse[line] = i
	return d.slab.at(i)
}

func (d *Directory) homeOf(line uint64) int {
	return d.placement.Home(memsys.Addr(line << d.lineShift))
}

func (d *Directory) classify(e *entry, c CacheID) Class {
	bit := uint64(1) << uint(c)
	switch {
	case e.ever&bit == 0:
		return Cold
	case e.inval&bit != 0:
		return Coherence
	default:
		return Capacity
	}
}

// Read handles a read miss by cache c on the given protocol line at simulated
// time now. It updates directory and remote cache states and returns the
// latency and the state to install.
func (d *Directory) Read(c CacheID, line uint64, now uint64) Result {
	d.Stats.Reads++
	e := d.entryFor(line)
	bit := uint64(1) << uint(c)
	cl := d.classify(e, c)
	e.ever |= bit
	e.inval &^= bit

	home := d.homeOf(line)
	rnode := d.nodeOf[c]
	lat := d.net.Latency(rnode, home) + d.params.DirAccess
	wait := d.mem[home].Serve(now + lat)
	lat += wait
	d.Stats.QueueWait += wait

	res := Result{Class: cl}
	switch e.state {
	case dirUncached:
		lat += d.params.MemAccess + d.net.Latency(home, rnode)
		d.Stats.CleanMisses++
		if d.params.NoExclusive {
			e.state = dirShared
			e.sharers = bit
			res.Grant = cache.Shared
			break
		}
		e.state = dirOwned
		e.owner = int16(c)
		e.ownerMod = false
		res.Grant = cache.Exclusive

	case dirShared:
		lat += d.params.MemAccess + d.net.Latency(home, rnode)
		d.Stats.CleanMisses++
		d.Stats.CleanSharedGrants++
		e.sharers |= bit
		res.Grant = cache.Shared

	case dirOwned:
		o := CacheID(e.owner)
		if o == c {
			// The owner's copy was silently replaced (or lost to pollution)
			// without a notification reaching us; treat as uncached.
			lat += d.params.MemAccess + d.net.Latency(home, rnode)
			d.Stats.CleanMisses++
			res.Grant = cache.Exclusive
			if d.params.NoExclusive {
				e.state = dirShared
				e.sharers = bit
				res.Grant = cache.Shared
			}
			break
		}
		onode := d.nodeOf[o]
		ownerState := d.caches[o].StateOf(line)
		dirtyOwner := ownerState == cache.Modified || (ownerState == cache.Invalid && e.ownerMod)
		threeHop := d.net.Latency(home, onode) + d.params.CacheExtract + d.net.Latency(onode, rnode)

		switch {
		case ownerState == cache.Invalid:
			// Owner silently dropped the line. If it had modified data we
			// would have seen the writeback; model as clean at home.
			lat += d.params.MemAccess + d.net.Latency(home, rnode)
			d.Stats.CleanMisses++
			e.state = dirOwned
			e.owner = int16(c)
			e.ownerMod = false
			res.Grant = cache.Exclusive

		case dirtyOwner && d.params.Migratory && e.migratory:
			// Migratory enhancement: invalidate the owner, pass the dirty
			// line with ownership.
			lat += threeHop
			d.caches[o].Invalidate(line)
			if d.Hooks.Invalidate != nil {
				d.Hooks.Invalidate(c, o, line, now)
			}
			e.inval |= uint64(1) << uint(o)
			e.owner = int16(c)
			e.ownerMod = true
			d.Stats.DirtyInterventions++
			d.Stats.MigratoryTransfers++
			res.Grant = cache.Modified
			res.Dirty3Hop = true

		case dirtyOwner:
			// Standard MESI: owner downgrades to S, home gets the data,
			// requester shares it. Speculation cannot help here — the only
			// valid data is the owner's — so the requester pays the 3-hop
			// intervention either way.
			lat += threeHop
			d.caches[o].Downgrade(line)
			e.state = dirShared
			e.sharers = (uint64(1) << uint(o)) | bit
			e.ownerMod = false
			d.Stats.DirtyInterventions++
			res.Grant = cache.Shared
			res.Dirty3Hop = true

		default:
			// Owner has a clean Exclusive copy.
			if d.params.Speculative {
				// The speculative home reply is valid: cost of a clean miss
				// plus the directory's extra bookkeeping.
				lat += d.params.MemAccess + d.net.Latency(home, rnode)
				d.Stats.SpeculativeHits++
			} else {
				// V-Class: the owner must confirm before home replies
				// ("the control information has to be sent back from p1 to
				// the home directory"), so the requester pays a 3-hop trip.
				lat += threeHop
			}
			d.caches[o].Downgrade(line)
			e.state = dirShared
			e.sharers = (uint64(1) << uint(o)) | bit
			d.Stats.CleanInterventions++
			res.Grant = cache.Shared
		}
	}

	res.Latency = lat
	d.Stats.TotalLatency += lat
	if d.Hooks.Request != nil {
		d.Hooks.Request(c, false, false, line, now, res)
	}
	return res
}

// Write handles a write miss (read-with-intent-to-modify) by cache c.
func (d *Directory) Write(c CacheID, line uint64, now uint64) Result {
	d.Stats.Writes++
	e := d.entryFor(line)
	bit := uint64(1) << uint(c)
	cl := d.classify(e, c)
	e.ever |= bit
	e.inval &^= bit

	home := d.homeOf(line)
	rnode := d.nodeOf[c]
	lat := d.net.Latency(rnode, home) + d.params.DirAccess
	wait := d.mem[home].Serve(now + lat)
	lat += wait
	d.Stats.QueueWait += wait

	res := Result{Class: cl, Grant: cache.Modified}
	switch e.state {
	case dirUncached:
		lat += d.params.MemAccess + d.net.Latency(home, rnode)
		d.Stats.CleanMisses++

	case dirShared:
		lat += d.params.MemAccess + d.params.InvalLatency + d.net.Latency(home, rnode)
		d.Stats.CleanMisses++
		d.invalidateSharers(e, line, c, now)
		e.migratory = true // write following shared reads: hand-off pattern

	case dirOwned:
		o := CacheID(e.owner)
		if o != c {
			onode := d.nodeOf[o]
			ownerState := d.caches[o].StateOf(line)
			if ownerState == cache.Invalid {
				lat += d.params.MemAccess + d.net.Latency(home, rnode)
				d.Stats.CleanMisses++
			} else {
				lat += d.net.Latency(home, onode) + d.params.CacheExtract + d.net.Latency(onode, rnode)
				d.caches[o].Invalidate(line)
				if d.Hooks.Invalidate != nil {
					d.Hooks.Invalidate(c, o, line, now)
				}
				e.inval |= uint64(1) << uint(o)
				d.Stats.InvalidationsSent++
				if ownerState == cache.Modified {
					d.Stats.DirtyInterventions++
					res.Dirty3Hop = true
				} else {
					d.Stats.CleanInterventions++
				}
			}
		} else {
			lat += d.params.MemAccess + d.net.Latency(home, rnode)
			d.Stats.CleanMisses++
		}
	}
	e.state = dirOwned
	e.owner = int16(c)
	e.ownerMod = true
	e.sharers = 0

	res.Latency = lat
	d.Stats.TotalLatency += lat
	if d.Hooks.Request != nil {
		d.Hooks.Request(c, true, false, line, now, res)
	}
	return res
}

// Upgrade handles a write hit on a Shared line: cache c already has the data
// and needs ownership. If the directory no longer lists c (its copy was
// invalidated under it), the call falls back to a full write miss.
func (d *Directory) Upgrade(c CacheID, line uint64, now uint64) Result {
	e := d.entryFor(line)
	bit := uint64(1) << uint(c)
	if e.state != dirShared || e.sharers&bit == 0 {
		return d.Write(c, line, now)
	}
	d.Stats.Upgrades++
	home := d.homeOf(line)
	rnode := d.nodeOf[c]
	lat := d.net.Latency(rnode, home) + d.params.DirAccess
	wait := d.mem[home].Serve(now + lat)
	lat += wait
	d.Stats.QueueWait += wait

	if e.sharers != bit {
		lat += d.params.InvalLatency
	}
	lat += d.net.Latency(home, rnode) // ack
	d.invalidateSharers(e, line, c, now)
	e.migratory = true // read-then-write observed: migratory candidate
	e.state = dirOwned
	e.owner = int16(c)
	e.ownerMod = true
	e.sharers = 0

	res := Result{Latency: lat, Grant: cache.Modified, Class: Capacity}
	d.Stats.TotalLatency += lat
	if d.Hooks.Request != nil {
		d.Hooks.Request(c, true, true, line, now, res)
	}
	return res
}

func (d *Directory) invalidateSharers(e *entry, line uint64, except CacheID, now uint64) {
	for i := range d.caches {
		bit := uint64(1) << uint(i)
		if e.sharers&bit != 0 && CacheID(i) != except {
			d.caches[i].Invalidate(line)
			if d.Hooks.Invalidate != nil {
				d.Hooks.Invalidate(except, CacheID(i), line, now)
			}
			e.inval |= bit
			d.Stats.InvalidationsSent++
		}
	}
	e.sharers = 0
}

// Evict tells the directory that cache c replaced line (capacity) with
// dirty=true if the line was Modified. Dirty evictions are written back to
// the home (charged as occupancy, not latency: the write buffer hides it).
func (d *Directory) Evict(c CacheID, line uint64, dirty bool, now uint64) {
	e := d.entryFor(line)
	bit := uint64(1) << uint(c)
	switch e.state {
	case dirOwned:
		if CacheID(e.owner) == c {
			e.state = dirUncached
			e.ownerMod = false
		}
	case dirShared:
		e.sharers &^= bit
		if e.sharers == 0 {
			e.state = dirUncached
		}
	}
	if dirty {
		d.Stats.Writebacks++
		home := d.homeOf(line)
		d.mem[home].Serve(now)
	}
}
