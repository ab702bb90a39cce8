// Command dssperf is the repository benchmark. With -workload it runs one
// workload: it sets the workload up several times, runs a discarded warm-up
// pass and then timed passes for -seconds, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of an
// added traced pass and layer probes) as a JSON object on the last line of
// standard output. A readable account goes to standard error.
//
// Without -workload it runs every workload traced, each in its own child
// process, and saves a report; -diff compares two reports:
//
//	go run ./dssperf -report base.json
//	go run ./dssperf -report new.json
//	go run ./dssperf -diff base.json new.json
//
// See bench/README.md for the workloads, metrics and layer map.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	c := defaultConfig()
	flag.StringVar(&c.workload, "workload", "", "workload to run (empty: every workload, each in a child process)")
	flag.Uint64Var(&c.seed, "seed", c.seed, "workload seed: the TPC-H data, OLTP stream and request order derive from it")
	flag.Float64Var(&c.seconds, "seconds", c.seconds, "how long the timed passes run")
	traceLevel := flag.Int("trace", 0, "1: add a traced pass and the layer probes, and print the per-layer metrics")
	flag.StringVar(&c.traceFile, "trace-file", "", "Chrome trace of the traced run (default .bench_build/trace-<workload>.json)")
	reportPath := flag.String("report", "", "save the detailed report here (default for a run of every workload: .bench_build/report.json)")
	diffMode := flag.Bool("diff", false, "compare two reports: dssperf -diff base.json new.json")
	flag.Parse()

	var err error
	switch {
	case *diffMode:
		err = runDiff(flag.Args())
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case *traceLevel != 0 && *traceLevel != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case c.workload == "":
		err = runAll(c, *reportPath)
	default:
		c.trace = *traceLevel == 1
		err = runOne(c, *reportPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dssperf: %v\n", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line.
func runOne(c runConfig, reportPath string) error {
	r, err := runWorkload(c)
	if err != nil {
		return err
	}
	printHuman(os.Stderr, c.workload, c.seed, r)
	if reportPath != "" {
		rep := newReport(c)
		rep.Workloads[c.workload] = r
		if err := writeReport(reportPath, rep); err != nil {
			return err
		}
	}
	return printResult(os.Stdout, r, c.trace)
}

// runAll runs every workload traced, each in its own child process so that
// its peak memory and heap are its own, and merges their reports.
func runAll(c runConfig, reportPath string) error {
	if reportPath == "" {
		reportPath = filepath.Join(".bench_build", "report.json")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := newReport(c)
	start := time.Now()
	for _, w := range workloads {
		part := reportPath + "." + w.name
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10),
			"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", "1", "-report", part)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		sub, err := readReport(part)
		if err != nil {
			return err
		}
		if err := os.Remove(part); err != nil {
			return err
		}
		rep.Workloads[w.name] = sub.Workloads[w.name]
	}
	rep.TotalS = time.Since(start).Seconds()
	if err := writeReport(reportPath, rep); err != nil {
		return err
	}
	fmt.Printf("%-13s %-7s", "workload", "correct")
	for _, m := range endToEnd {
		fmt.Printf(" %11s", m.name)
	}
	fmt.Println()
	for _, w := range workloads {
		r := rep.Workloads[w.name]
		fmt.Printf("%-13s %-7v", w.name, r.Correct)
		for _, m := range endToEnd {
			fmt.Printf(" %11.4g", r.Metrics[m.name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("total %.1f s on %s (nproc %d, %s); report %s\n", rep.TotalS, rep.Host, rep.NProc, rep.Go, reportPath)
	return nil
}

// runDiff compares two saved reports; it fails when a metric got worse.
func runDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: dssperf -diff base.json new.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	base, err := readReport(args[0])
	if err != nil {
		return err
	}
	cur, err := readReport(args[1])
	if err != nil {
		return err
	}
	if n := diff(os.Stdout, base, cur, spec); n > 0 {
		return fmt.Errorf("%d metric(s) worse than %s", n, args[0])
	}
	return nil
}
