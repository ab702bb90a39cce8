// Package interconnect models the two machines' interconnection fabrics:
// the HP V-Class hyperplane crossbar (uniform, nonblocking) and the SGI
// Origin 2000 bristled hypercube (hop-count dependent), plus a simple
// fixed-occupancy queueing model for contended resources such as memory
// controllers and hubs.
package interconnect

import (
	"fmt"
	"math/bits"
)

// Network computes message latencies between endpoints (nodes for NUMA
// machines, controllers for the crossbar). All latencies are in CPU cycles of
// the machine that owns the network.
type Network interface {
	// Latency is the one-way latency of a message from src to dst.
	Latency(src, dst int) uint64
}

// Crossbar is a nonblocking uniform-latency fabric: every endpoint pair costs
// the same. The V-Class hyperplane connects 8 EPACs (16 CPUs) to 8 EMAC
// memory controllers this way.
type Crossbar struct {
	Ports int
	Hop   uint64 // one-way traversal latency in cycles
}

// Latency implements Network; src==dst still crosses the fabric on the
// V-Class (processors never own memory), so the cost is uniform.
func (c Crossbar) Latency(src, dst int) uint64 { return c.Hop }

// Hypercube is the Origin 2000 bristled hypercube: nodes (each holding two
// CPUs, memory and a hub) sit at the corners of a binary n-cube, and a
// message's hop count is the Hamming distance between node numbers. Local
// references (src==dst) only cross the hub.
type Hypercube struct {
	NodeCount int    // power of two
	HubDelay  uint64 // hub/NI traversal at each end and for local accesses
	HopDelay  uint64 // per router+link hop
}

// NewHypercube validates and returns a hypercube of n nodes.
func NewHypercube(n int, hub, hop uint64) Hypercube {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("interconnect: hypercube needs power-of-two nodes, got %d", n))
	}
	return Hypercube{NodeCount: n, HubDelay: hub, HopDelay: hop}
}

// Hops returns the router hops between two nodes.
func (h Hypercube) Hops(src, dst int) int { return bits.OnesCount(uint(src ^ dst)) }

// Latency implements Network.
func (h Hypercube) Latency(src, dst int) uint64 {
	return h.HubDelay + uint64(h.Hops(src, dst))*h.HopDelay
}

// Server models a contended resource (memory bank, directory controller,
// hub) with fixed per-request occupancy. Because the execution-driven
// simulation replays each process's requests in quantum-sized batches,
// arrival timestamps are only approximately ordered, so a literal FIFO
// reservation would charge the scheduling skew as queueing. Instead the
// server estimates its utilization from an exponentially weighted moving
// average of inter-arrival gaps and charges the M/D/1 mean queueing delay
// Wq = s·ρ/(2(1−ρ)) — order-insensitive, deterministic, and smooth in the
// offered load.
type Server struct {
	Occupancy uint64 // cycles each request holds the resource

	last   uint64
	avgGap float64 // EWMA of inter-arrival gap in cycles

	// Requests counts arrivals; the first only seeds the gap average. Serve
	// keeps no total of its delays: the directory's QueueWait sums those its
	// requests see.
	Requests uint64
}

// serverAlpha is the EWMA smoothing factor for inter-arrival gaps.
const serverAlpha = 0.05

// maxRho caps estimated utilization so delays stay finite under saturation.
const maxRho = 0.95

// Serve records a request arriving at time now and returns its queueing
// delay in cycles.
func (s *Server) Serve(now uint64) uint64 {
	s.Requests++
	if s.Requests == 1 {
		s.last = now
		return 0
	}
	gap := float64(now) - float64(s.last)
	if gap < 0 {
		gap = -gap // quantum skew: treat as the magnitude
	}
	if gap < 1 {
		gap = 1
	}
	s.last = now
	if s.avgGap == 0 {
		s.avgGap = gap
	} else {
		s.avgGap += serverAlpha * (gap - s.avgGap)
	}
	rho := float64(s.Occupancy) / s.avgGap
	if rho > maxRho {
		rho = maxRho
	}
	return uint64(float64(s.Occupancy)*rho/(2*(1-rho)) + 0.5)
}
