// Command traceplay records, inspects and replays memory-reference traces —
// the trace-driven companion to the execution-driven dssbench, after the
// authors' TPC-C trace study.
//
// Usage:
//
//	traceplay -record q6.trc -query Q6 -sf 0.002      # capture a query
//	traceplay -analyze q6.trc                          # trace composition
//	traceplay -replay q6.trc -machine origin           # drive a machine model
package main

import (
	"flag"
	"fmt"
	"os"

	"dssmem"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
	"dssmem/internal/trace"
)

func main() {
	record := flag.String("record", "", "capture a query trace into this file")
	analyze := flag.String("analyze", "", "print the composition of this trace")
	replay := flag.String("replay", "", "replay this trace onto a machine model")
	query := flag.String("query", "Q6", "query to capture (Q6, Q21, Q12, Q1)")
	sf := flag.Float64("sf", 0.002, "scale factor for -record")
	seed := flag.Uint64("seed", 7, "data seed for -record")
	mach := flag.String("machine", "vclass", "machine for -replay: vclass, origin or starfire")
	memScale := flag.Int("memscale", 128, "cache divisor for -replay")
	flag.Parse()

	switch {
	case *record != "":
		q, err := tpch.QueryByName(*query)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		data := dssmem.GenerateData(*sf, *seed)
		n, err := trace.CaptureQuery(f, data, q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d events of %s at SF %g into %s\n", n, q, *sf, *record)

	case *analyze != "":
		f, err := os.Open(*analyze)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		st, err := trace.Analyze(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loads          %d\nstores         %d\nwork ops       %d\n", st.Loads, st.Stores, st.WorkOps)
		fmt.Printf("instructions   %d\ndistinct 64B lines %d\n", st.Instructions, st.DistinctLines)

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		spec, err := machine.SpecByName(*mach, 0, *memScale)
		if err != nil {
			fatal(err)
		}
		m := machine.New(spec)
		mem := &trace.MachineMem{M: m, CPU: 0}
		n, err := trace.Replay(f, mem)
		if err != nil {
			fatal(err)
		}
		ct := m.Counters(0)
		fmt.Printf("replayed %d events on %s\n", n, spec.Name)
		fmt.Printf("cycles        %d\ninstructions  %d\nCPI           %.3f\n", ct.Cycles, ct.Instructions, ct.CPI())
		fmt.Printf("L1 D misses   %d\n", ct.L1DMisses)
		if ct.L2DMisses > 0 {
			fmt.Printf("L2 D misses   %d\n", ct.L2DMisses)
		}
		fmt.Printf("avg mem lat   %.1f cycles\n", ct.AvgMemLatency())

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceplay:", err)
	os.Exit(1)
}
