// Command machinesim runs the microbenchmarks of the authors' earlier study
// (Iyer et al., ICS'99) against the simulated machines: dependent-load
// latency across working-set sizes, streaming bandwidth, and lock ping-pong
// hand-off cost. It is the calibration face of the machine models.
//
// Usage:
//
//	machinesim [-memscale 1] [-iters 200000]
package main

import (
	"flag"
	"fmt"
	"os"

	"dssmem/internal/machine"
	"dssmem/internal/microbench"
)

func main() {
	memScale := flag.Int("memscale", 1, "cache capacity divisor")
	iters := flag.Int("iters", 200_000, "loads per latency point")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "machinesim: unexpected argument %q (flags only; a boolean flag takes -name=value)\n", flag.Arg(0))
		os.Exit(1)
	}
	if *iters < 1 {
		// microbench.Latency averages over iters loads: 0 would print NaN.
		fmt.Fprintf(os.Stderr, "machinesim: bad -iters %d (must be at least 1)\n", *iters)
		os.Exit(1)
	}

	var specs []machine.Spec
	for _, name := range []string{"vclass", "origin"} {
		spec, err := machine.SpecByName(name, 0, *memScale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "machinesim:", err)
			os.Exit(1)
		}
		specs = append(specs, spec)
	}

	fmt.Println("== dependent-load latency (cold start, then steady state) ==")
	fmt.Printf("%-18s %12s %14s %14s\n", "machine", "working set", "cycles/load", "ns/load")
	for _, spec := range specs {
		for _, ws := range []int{4 << 10, 64 << 10, 1 << 20, 16 << 20} {
			r := microbench.Latency(spec, ws, *iters)
			fmt.Printf("%-18s %12d %14.2f %14.2f\n", r.Machine, r.WorkingSet, r.AvgCycles, r.AvgNanoseconds)
		}
	}

	fmt.Println("\n== streaming read bandwidth ==")
	fmt.Printf("%-18s %16s %14s\n", "machine", "bytes/cycle", "MB/s")
	for _, spec := range specs {
		r := microbench.Bandwidth(spec, 8<<20)
		fmt.Printf("%-18s %16.3f %14.0f\n", r.Machine, r.BytesPerCycle, r.MBPerSecond)
	}

	fmt.Println("\n== shared-line ping-pong (lock metadata pattern) ==")
	fmt.Printf("%-18s %6s %18s\n", "machine", "procs", "cycles/access")
	for _, spec := range specs {
		for _, n := range []int{2, 4, 8} {
			r := microbench.PingPong(spec, n, 3000)
			fmt.Printf("%-18s %6d %18.1f\n", r.Machine, r.Processes, r.CyclesPerAccess)
		}
	}

	fmt.Println("\n== DBMS scan kernel (tiny Q6 through the full stack) ==")
	fmt.Printf("%-18s %8s %16s\n", "machine", "CPI", "L1 misses/row")
	for _, spec := range specs {
		r := microbench.Scan(spec, 0.001)
		fmt.Printf("%-18s %8.3f %16.2f\n", r.Machine, r.CPI, r.MissesPerRow)
	}
}
