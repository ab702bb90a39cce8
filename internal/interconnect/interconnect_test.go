package interconnect

import (
	"testing"
	"testing/quick"
)

func TestCrossbarUniform(t *testing.T) {
	xb := Crossbar{Ports: 8, Hop: 12}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if xb.Latency(s, d) != 12 {
				t.Fatalf("latency(%d,%d) = %d", s, d, xb.Latency(s, d))
			}
		}
	}
}

func TestHypercubeHops(t *testing.T) {
	h := NewHypercube(16, 5, 10)
	cases := []struct{ s, d, hops int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 2}, {0, 15, 4}, {5, 10, 4}, {7, 8, 4},
	}
	for _, c := range cases {
		if got := h.Hops(c.s, c.d); got != c.hops {
			t.Errorf("hops(%d,%d) = %d, want %d", c.s, c.d, got, c.hops)
		}
		want := 5 + uint64(c.hops)*10
		if got := h.Latency(c.s, c.d); got != want {
			t.Errorf("latency(%d,%d) = %d, want %d", c.s, c.d, got, want)
		}
	}
}

func TestHypercubeLocalCheaperThanRemote(t *testing.T) {
	h := NewHypercube(16, 5, 10)
	if h.Latency(3, 3) >= h.Latency(3, 2) {
		t.Fatal("local access must be cheaper than any remote")
	}
}

func TestHypercubeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two")
		}
	}()
	NewHypercube(12, 1, 1)
}

func TestHypercubeSymmetry(t *testing.T) {
	h := NewHypercube(32, 7, 9)
	f := func(a, b uint8) bool {
		s, d := int(a%32), int(b%32)
		if h.Latency(s, d) != h.Latency(d, s) {
			return false
		}
		if s == d {
			return h.Latency(s, d) == h.HubDelay
		}
		return h.Latency(s, d) > h.HubDelay
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerLightLoadNoQueueing(t *testing.T) {
	s := &Server{Occupancy: 10}
	var total uint64
	now := uint64(0)
	for i := 0; i < 200; i++ {
		now += 1000 // gaps 100x the occupancy
		total += s.Serve(now)
	}
	if total > 20 {
		t.Fatalf("light load queued %d cycles", total)
	}
	if s.Requests != 200 {
		t.Fatalf("requests = %d", s.Requests)
	}
}

func TestServerHeavyLoadQueues(t *testing.T) {
	s := &Server{Occupancy: 10}
	now := uint64(0)
	var last, total uint64
	for i := 0; i < 500; i++ {
		now += 12 // near saturation
		last = s.Serve(now)
		total += last
	}
	if last == 0 || total == 0 {
		t.Fatal("heavy load produced no queueing")
	}
	if rho := float64(s.Occupancy) / s.avgGap; rho < 0.5 {
		t.Fatalf("utilization = %v", rho)
	}
}

func TestServerDelayMonotoneInLoad(t *testing.T) {
	delayAt := func(gap uint64) uint64 {
		s := &Server{Occupancy: 10}
		now := uint64(0)
		var d uint64
		for i := 0; i < 500; i++ {
			now += gap
			d = s.Serve(now)
		}
		return d
	}
	if !(delayAt(15) > delayAt(40) && delayAt(40) >= delayAt(400)) {
		t.Fatalf("delays not monotone: %d %d %d", delayAt(15), delayAt(40), delayAt(400))
	}
}

func TestServerOrderInsensitive(t *testing.T) {
	// Interleaved out-of-order arrivals (quantum skew) must not produce
	// delays wildly different from the ordered equivalent.
	ordered := &Server{Occupancy: 10}
	skewed := &Server{Occupancy: 10}
	var totOrd, totSkew uint64
	for i := 0; i < 400; i++ {
		totOrd += ordered.Serve(uint64(i) * 100)
	}
	for i := 0; i < 200; i++ { // two processes, one 5000 cycles behind
		totSkew += skewed.Serve(uint64(i)*200 + 5000)
		totSkew += skewed.Serve(uint64(i) * 200)
	}
	if totSkew > 50*totOrd+1000 {
		t.Fatalf("skew inflated queueing: %d vs %d", totSkew, totOrd)
	}
}

func TestServerSaturationBounded(t *testing.T) {
	s := &Server{Occupancy: 100}
	var d uint64
	for i := 0; i < 1000; i++ {
		d = s.Serve(5) // all at the same instant
	}
	// M/D/1 at the 0.95 cap: 100*0.95/(2*0.05) = 950.
	if d > 1000 {
		t.Fatalf("saturated delay %d not capped", d)
	}
}
