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
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (flags only; a boolean flag takes -name=value)", flag.Arg(0)))
	}

	// One mode per run, with only that mode's flags: any other would be
	// ignored while the run exits 0.
	modes := 0
	for _, path := range []string{*record, *analyze, *replay} {
		if path != "" {
			modes++
		}
	}
	if modes == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if modes > 1 {
		fatal(fmt.Errorf("-record, -analyze and -replay are separate modes: give one"))
	}
	owner := map[string]string{"query": "record", "sf": "record", "seed": "record", "machine": "replay", "memscale": "replay"}
	flag.Visit(func(f *flag.Flag) {
		if mode := owner[f.Name]; mode != "" && flag.Lookup(mode).Value.String() == "" {
			fatal(fmt.Errorf("-%s applies only to -%s", f.Name, mode))
		}
	})
	if !(*sf > 0) {
		fatal(fmt.Errorf("bad -sf %g: scale factor must be positive", *sf))
	}
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
		spec, err := machine.SpecByName(*mach, 0, *memScale)
		if err != nil {
			fatal(err)
		}
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
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
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceplay:", err)
	os.Exit(1)
}
