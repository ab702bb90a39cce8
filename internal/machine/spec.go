// Package machine assembles caches, coherence and interconnect models into
// full multiprocessor machines and provides the two platforms under study:
// the HP V-Class and the SGI Origin 2000.
package machine

import (
	"fmt"
	"math"
	"strings"

	"dssmem/internal/cache"
	"dssmem/internal/coherence"
	"dssmem/internal/interconnect"
	"dssmem/internal/memsys"
)

// NetKind selects the interconnect fabric.
type NetKind int

// Interconnect kinds.
const (
	NetCrossbar NetKind = iota
	NetHypercube
)

// PlacementKind selects page-to-home mapping.
type PlacementKind int

// Placement kinds.
const (
	// PlaceInterleaved spreads lines across all memory controllers (UMA).
	PlaceInterleaved PlacementKind = iota
	// PlaceConcentrated puts shared pages on SharedNodes nodes and private
	// pages on the owner's node (the Origin/IRIX behaviour the paper saw).
	PlaceConcentrated
)

// Spec fully describes a machine. All latencies are in that machine's CPU
// cycles.
type Spec struct {
	Name     string
	CPUs     int
	ClockMHz int

	// Cache hierarchy. L2 is nil for single-level machines (V-Class).
	L1 cache.Config
	L2 *cache.Config

	// Timing.
	BaseCPI          float64 // cycles per instruction with a perfect memory system
	L2HitCycles      uint64  // L1-miss/L2-hit service time
	ReadStallFactor  float64 // fraction of a read-miss latency the pipeline stalls
	WriteStallFactor float64 // same for writes/upgrades (store buffers hide more)

	// Memory system.
	Protocol     coherence.Params
	MemNodes     int    // memory controllers (V-Class EMACs) or NUMA nodes
	MemOccupancy uint64 // controller occupancy per request
	SharedNodes  int    // for PlaceConcentrated
	Placement    PlacementKind
	Net          NetKind
	NetHop       uint64 // crossbar hop or hypercube per-hop latency
	NetHub       uint64 // hypercube hub delay (ignored for crossbar)

	// SharedLimit bounds the dense directory region (bytes of shared space).
	SharedLimit uint64
}

// CPUNode returns the node/endpoint of a CPU: Origin packs two CPUs per node;
// crossbar machines hash CPUs over controllers (latency is uniform anyway).
func (s *Spec) CPUNode(cpu int) int {
	if s.Net == NetHypercube {
		return cpu / 2 % s.MemNodes
	}
	return cpu % s.MemNodes
}

// Validate checks the geometry, the clock and the pipeline timing.
func (s *Spec) Validate() error {
	if s.CPUs <= 0 || s.CPUs > 64 {
		return fmt.Errorf("machine %s: CPUs must be 1..64, got %d", s.Name, s.CPUs)
	}
	if s.ClockMHz <= 0 {
		return fmt.Errorf("machine %s: ClockMHz must be positive, got %d", s.Name, s.ClockMHz)
	}
	// The negated comparisons also reject NaN.
	if !(s.BaseCPI > 0) || math.IsInf(s.BaseCPI, 1) {
		return fmt.Errorf("machine %s: BaseCPI must be finite and positive, got %v", s.Name, s.BaseCPI)
	}
	if !(s.ReadStallFactor >= 0 && s.ReadStallFactor <= 1) {
		return fmt.Errorf("machine %s: ReadStallFactor must be in [0, 1], got %v", s.Name, s.ReadStallFactor)
	}
	if !(s.WriteStallFactor >= 0 && s.WriteStallFactor <= 1) {
		return fmt.Errorf("machine %s: WriteStallFactor must be in [0, 1], got %v", s.Name, s.WriteStallFactor)
	}
	if err := s.L1.Validate(); err != nil {
		return err
	}
	if s.L2 != nil {
		if err := s.L2.Validate(); err != nil {
			return err
		}
		if s.L2.LineSize < s.L1.LineSize {
			return fmt.Errorf("machine %s: L2 line smaller than L1 line", s.Name)
		}
	}
	if s.MemNodes <= 0 {
		return fmt.Errorf("machine %s: need at least one memory node", s.Name)
	}
	if s.Net == NetHypercube && s.MemNodes&(s.MemNodes-1) != 0 {
		return fmt.Errorf("machine %s: a hypercube needs a power-of-two MemNodes, got %d", s.Name, s.MemNodes)
	}
	return nil
}

// scaleCache divides a cache's capacity by scale, keeping line size and
// associativity, with a floor of 16 lines so the geometry stays valid.
func scaleCache(c cache.Config, scale int) cache.Config {
	if scale <= 1 {
		return c
	}
	size := c.Size / scale
	min := 16 * c.LineSize * c.Assoc / c.Assoc
	if min < c.LineSize*c.Assoc {
		min = c.LineSize * c.Assoc
	}
	if size < min {
		size = min
	}
	// Round down to a power-of-two set count.
	sets := size / (c.LineSize * c.Assoc)
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c.Size = p * c.LineSize * c.Assoc
	return c
}

// VClassSpec returns the HP V-Class model: up to 16 PA-8200s at 200 MHz with
// single-level 2 MB direct-mapped data caches (32 B lines), a uniform
// hyperplane crossbar to 8 interleaved EMAC memory controllers, and a
// directory protocol with the migratory enhancement. memScale divides cache
// capacities to match a scaled-down database (see DESIGN.md §4).
func VClassSpec(cpus, memScale int) Spec {
	if cpus <= 0 {
		cpus = 16
	}
	return Spec{
		Name:     "HP V-Class",
		CPUs:     cpus,
		ClockMHz: 200,
		L1: scaleCache(cache.Config{
			Name: "PA8200-D", Size: 2 << 20, LineSize: 32, Assoc: 1,
		}, memScale),
		BaseCPI:          1.0,
		ReadStallFactor:  0.7,
		WriteStallFactor: 0.25,
		Protocol: coherence.Params{
			MemAccess:    70,
			DirAccess:    6,
			CacheExtract: 90,
			InvalLatency: 25,
			Migratory:    true,
		},
		MemNodes:     8,
		MemOccupancy: 25,
		Placement:    PlaceInterleaved,
		Net:          NetCrossbar,
		NetHop:       8,
		SharedLimit:  16 << 20,
	}
}

// OriginSpec returns the SGI Origin 2000 model: up to 32 R10000s at 250 MHz
// (two per node), 32 KB 2-way L1 D caches (32 B lines) backed by 4 MB 2-way
// unified L2 caches (128 B lines), a bristled hypercube, concentrated shared
// memory placement, and a directory protocol with speculative replies.
func OriginSpec(cpus, memScale int) Spec {
	if cpus <= 0 {
		cpus = 32
	}
	nodes := (cpus + 1) / 2
	// Hypercube wants a power-of-two node count.
	n := 1
	for n < nodes {
		n *= 2
	}
	l2 := scaleCache(cache.Config{
		Name: "R10K-L2", Size: 4 << 20, LineSize: 128, Assoc: 2,
	}, memScale)
	return Spec{
		Name:     "SGI Origin 2000",
		CPUs:     cpus,
		ClockMHz: 250,
		L1: scaleCache(cache.Config{
			Name: "R10K-L1D", Size: 32 << 10, LineSize: 32, Assoc: 2,
		}, memScale),
		L2:               &l2,
		BaseCPI:          1.0,
		L2HitCycles:      10,
		ReadStallFactor:  0.7,
		WriteStallFactor: 0.25,
		Protocol: coherence.Params{
			MemAccess:    45,
			DirAccess:    6,
			CacheExtract: 80,
			InvalLatency: 30,
			Speculative:  true,
		},
		MemNodes:     n,
		MemOccupancy: 60,
		SharedNodes:  1,
		Placement:    PlaceConcentrated,
		Net:          NetHypercube,
		NetHop:       10,
		NetHub:       15,
		SharedLimit:  16 << 20,
	}
}

// StarfireSpec returns a third era platform for cross-platform studies: a
// Sun Enterprise 10000 ("Starfire")-style UMA SMP — up to 64 UltraSPARC-II
// CPUs at 250 MHz with 16 KB L1 D caches (32 B lines) and 4 MB external L2
// caches (64 B lines), a uniform address-crossbar fabric over 16 interleaved
// memory boards, and a plain MESI directory (no migratory or speculative
// tricks). It is not one of the paper's machines; it extends the comparison
// the paper invites.
func StarfireSpec(cpus, memScale int) Spec {
	if cpus <= 0 {
		cpus = 64
	}
	l2 := scaleCache(cache.Config{
		Name: "USII-L2", Size: 4 << 20, LineSize: 64, Assoc: 1,
	}, memScale)
	return Spec{
		Name:     "Sun Starfire",
		CPUs:     cpus,
		ClockMHz: 250,
		L1: scaleCache(cache.Config{
			Name: "USII-L1D", Size: 16 << 10, LineSize: 32, Assoc: 1,
		}, memScale),
		L2:               &l2,
		BaseCPI:          1.0,
		L2HitCycles:      8,
		ReadStallFactor:  0.7,
		WriteStallFactor: 0.25,
		Protocol: coherence.Params{
			MemAccess:    60,
			DirAccess:    8,
			CacheExtract: 85,
			InvalLatency: 28,
		},
		MemNodes:     16,
		MemOccupancy: 22,
		Placement:    PlaceInterleaved,
		Net:          NetCrossbar,
		NetHop:       12,
		SharedLimit:  16 << 20,
	}
}

// SpecByName builds a platform spec from its name — vclass (hpv, v-class),
// origin (sgi, origin2000) or starfire (e10000), any case, "" meaning vclass
// — with cpus processors (0 = the platform's full size) at the given memory
// scale (1 = full-size caches). The spec is validated, so an out-of-range CPU
// count or memory scale is an error here rather than a silently different
// machine or a panic in New.
func SpecByName(name string, cpus, memScale int) (Spec, error) {
	if cpus < 0 {
		return Spec{}, fmt.Errorf("bad cpus %d", cpus)
	}
	if memScale < 1 {
		return Spec{}, fmt.Errorf("bad memory scale %d (must be at least 1)", memScale)
	}
	var spec Spec
	switch strings.ToLower(name) {
	case "", "vclass", "hpv", "v-class":
		spec = VClassSpec(cpus, memScale)
	case "origin", "sgi", "origin2000":
		spec = OriginSpec(cpus, memScale)
	case "starfire", "e10000":
		spec = StarfireSpec(cpus, memScale)
	default:
		return Spec{}, fmt.Errorf("unknown machine %q (vclass|origin|starfire)", name)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

func (s *Spec) network() interconnect.Network {
	switch s.Net {
	case NetHypercube:
		return interconnect.NewHypercube(s.MemNodes, s.NetHub, s.NetHop)
	default:
		return interconnect.Crossbar{Ports: s.MemNodes, Hop: s.NetHop}
	}
}

func (s *Spec) placement() memsys.Placement {
	switch s.Placement {
	case PlaceConcentrated:
		k := s.SharedNodes
		if k <= 0 {
			k = 1
		}
		if k > s.MemNodes {
			k = s.MemNodes
		}
		return memsys.Concentrated{
			NodesTotal:  s.MemNodes,
			SharedNodes: k,
			OwnerNode:   s.CPUNode, // process i is pinned to CPU i by convention
		}
	default:
		unit := uint64(s.L1.LineSize)
		if s.L2 != nil {
			unit = uint64(s.L2.LineSize)
		}
		return memsys.Interleaved{N: s.MemNodes, Unit: unit}
	}
}
