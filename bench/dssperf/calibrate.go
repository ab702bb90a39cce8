package main

import (
	"sync"
	"time"
)

// calibRef is calibrate's time on the reference host (2 cores; see
// bench/README.md). A timing scaled by calibRef ÷ calibrate() is in the
// reference host's seconds: the benchmark's host may run faster or slower
// than the reference, and on a shared machine its speed drifts by tens of
// percent within minutes, which the scaling removes from the comparison of
// two runs.
const calibRef = 75 * time.Millisecond

// calibrate times a fixed amount of work that belongs to the benchmark, not
// to the program: a dependent pseudo-random walk over a table larger than a
// core's private caches, with the table lookups and data-dependent branches
// that dominate the simulator's own inner loops. It runs on `workers`
// goroutines at once, as the passes do, and returns the slowest one's time.
func calibrate(workers int) time.Duration {
	const size, steps = 1 << 20, 1 << 21 // 4 MiB of uint32, ~2M steps
	calibOnce.Do(func() {
		calibTable = make([]uint32, size)
		x := uint64(1)
		for i := range calibTable {
			calibTable[i] = uint32(splitmix(&x))
		}
	})
	var wg sync.WaitGroup
	times := make([]time.Duration, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			i, acc := uint32(w), uint32(0)
			for s := 0; s < steps; s++ {
				v := calibTable[i&(size-1)]
				if v&1 == 0 {
					acc += v >> 3
				} else {
					acc ^= v * 2654435761
				}
				i = v ^ acc
			}
			times[w] = time.Since(start)
			calibSink[w%len(calibSink)] = acc // keeps the walk from being optimized away
		}(w)
	}
	wg.Wait()
	slowest := times[0]
	for _, t := range times {
		slowest = max(slowest, t)
	}
	return slowest
}

var (
	calibOnce  sync.Once
	calibTable []uint32
	calibSink  [64]uint32
)
