// Command qrun runs one TPC-H query on one simulated machine and prints the
// answer alongside the hardware-counter profile — the equivalent of the
// paper's single instrumented query run.
//
// Usage:
//
//	qrun [-query Q6|Q21|Q12|Q1] [-machine vclass|origin|starfire] [-procs N] [-sf 0.004]
//	     [-memscale 64] [-seed N]
//	     [-sample N] [-sample-out f.csv|f.json] [-events trace.json] [-by-operator]
//
// The telemetry flags attach the observability layer: -sample N snapshots
// each CPU's counters every N simulated cycles (sparklines on stdout,
// optionally exported with -sample-out), -events writes a Chrome
// trace-event JSON openable in Perfetto or chrome://tracing, and
// -by-operator attributes counters to query-plan operators.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dssmem"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
)

func main() {
	query := flag.String("query", "Q6", "query: Q6, Q21, Q12 or Q1")
	mach := flag.String("machine", "vclass", "machine: vclass, origin or starfire")
	procs := flag.Int("procs", 1, "number of concurrent query processes (1..the machine's CPUs)")
	sf := flag.Float64("sf", 0.004, "TPC-H scale factor")
	memScale := flag.Int("memscale", 64, "cache capacity divisor (see DESIGN.md §4)")
	seed := flag.Uint64("seed", 7, "data generator seed")
	sample := flag.Uint64("sample", 0, "sample counters every N simulated cycles (0 = off)")
	sampleOut := flag.String("sample-out", "", "write sampled windows to this file (.json = JSON, else CSV; needs -sample)")
	events := flag.String("events", "", "write a Chrome trace-event JSON file (open in Perfetto)")
	byOperator := flag.Bool("by-operator", false, "attribute counters to query-plan operators")
	flag.Parse()

	if !(*sf > 0) {
		fatal(fmt.Errorf("bad -sf %g: scale factor must be positive", *sf))
	}
	if *sampleOut != "" && *sample == 0 {
		fatal(fmt.Errorf("-sample-out needs -sample N: there are no sampled windows to write"))
	}
	q, err := tpch.QueryByName(*query)
	if err != nil {
		fatal(err)
	}
	spec, err := machine.SpecByName(*mach, 0, *memScale)
	if err != nil {
		fatal(err)
	}

	var ob *dssmem.Observer
	if *sample > 0 || *events != "" || *byOperator {
		ob = dssmem.NewObserver(dssmem.ObsConfig{
			SampleInterval: *sample,
			Events:         *events != "",
			ByOperator:     *byOperator,
		})
	}

	data := dssmem.GenerateData(*sf, *seed)
	ans := dssmem.ReferenceAnswer(q, data)
	st, err := dssmem.Run(dssmem.RunOptions{
		Spec: spec, Data: data, Query: q, Processes: *procs, OSTimeScale: *memScale, Obs: ob,
	})
	if err != nil {
		fatal(err)
	}
	m := dssmem.Measure(st)

	fmt.Printf("%s on %s, %d process(es), SF=%g (%d lineitems)\n\n",
		q, spec.Name, *procs, *sf, len(data.Lineitem))
	printAnswer(ans)
	fmt.Printf("\n-- counters (mean per process) --\n")
	fmt.Printf("thread time     %.4g cycles (%.4f s wall)\n", m.ThreadCycles, m.WallSeconds)
	fmt.Printf("instructions    %.4g\n", m.Instructions)
	fmt.Printf("CPI             %.3f\n", m.CPI)
	fmt.Printf("L1 D misses     %.4g (%.0f /1M instr, %.2f%% of refs)\n", m.L1Misses, m.L1MissesPerM, 100*m.L1MissRate)
	if m.L2Misses > 0 {
		fmt.Printf("L2 D misses     %.4g (%.0f /1M instr)\n", m.L2Misses, m.L2MissesPerM)
	}
	fmt.Printf("miss classes    cold %.1f%% capacity %.1f%% coherence %.1f%%\n",
		100*m.ColdFraction, 100*m.CapacityFraction, 100*m.CoherenceFraction)
	fmt.Printf("mem latency     %.1f cycles (%.3f us)\n", m.MemLatencyCycles, m.MemLatencyMicros)
	fmt.Printf("ctx switches    %.2f voluntary, %.2f involuntary per 1M instr\n", m.VolPerM, m.InvolPerM)

	fmt.Printf("\n-- host timing --\n")
	fmt.Printf("warmup          %.1f ms\n", float64(st.WarmupHostNS)/1e6)
	fmt.Printf("measured        %.1f ms\n", float64(st.MeasuredHostNS)/1e6)

	if ob != nil {
		fmt.Printf("\n-- telemetry --\n")
		if err := ob.WriteSummary(os.Stdout); err != nil {
			fatal(err)
		}
		if *sampleOut != "" {
			if err := writeFile(*sampleOut, func(w io.Writer) error {
				if strings.HasSuffix(*sampleOut, ".json") {
					return ob.WriteSamplesJSON(w)
				}
				return ob.WriteSamplesCSV(w)
			}); err != nil {
				fatal(err)
			}
			fmt.Printf("samples written to %s\n", *sampleOut)
		}
		if *events != "" {
			if err := writeFile(*events, ob.WriteTrace); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s (open in Perfetto or chrome://tracing)\n", *events)
		}
	}
}

// writeFile creates path, runs emit on it and surfaces close errors.
func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printAnswer(r *dssmem.QueryResult) {
	switch r.Query {
	case dssmem.Q6:
		fmt.Printf("Q6 revenue: %d.%02d\n", r.Revenue/100, r.Revenue%100)
	case dssmem.Q12:
		fmt.Println("Q12 (shipmode, high-priority count, low-priority count):")
		for _, g := range r.Q12 {
			fmt.Printf("  mode %d: high %d, low %d\n", g.ShipMode, g.HighCount, g.LowCount)
		}
	case dssmem.Q1:
		fmt.Println("Q1 (returnflag, linestatus, sum qty, count):")
		for _, g := range r.Q1 {
			fmt.Printf("  %d/%d: qty %d, %d lines\n", g.ReturnFlag, g.LineStatus, g.SumQty, g.Count)
		}
	case dssmem.Q21:
		fmt.Printf("Q21 top waiting suppliers (%d rows):\n", len(r.Q21))
		for i, g := range r.Q21 {
			if i >= 10 {
				fmt.Printf("  ... and %d more\n", len(r.Q21)-10)
				break
			}
			fmt.Printf("  supplier %d: %d waits\n", g.SuppKey, g.NumWait)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qrun:", err)
	os.Exit(1)
}
