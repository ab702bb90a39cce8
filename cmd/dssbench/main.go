// Command dssbench regenerates the paper's evaluation figures and ablations.
//
// Usage:
//
//	dssbench [-preset tiny|small|medium] [-fig N|all] [-ablation name|all|none]
//	         [-format table|csv|json] [-json FILE] [-sample-quanta N]
//	dssbench [-sample N] [-events trace.json] [-by-operator] [-query Q] [-machine M] [-procs N]
//
// Examples:
//
//	dssbench -fig all                 # every figure at the default preset
//	dssbench -preset small -fig 9     # just the memory-latency figure
//	dssbench -ablation migratory      # one ablation
//	dssbench -sample 2000000 -query Q6 -machine origin -procs 4
//	                                  # time-resolved telemetry of one run
//	dssbench -events trace.json -by-operator -query Q21
//	                                  # Perfetto trace + operator attribution
//
// Any of -sample / -events / -by-operator switches dssbench into observed-run
// mode: instead of regenerating figures it executes one configuration
// (-query/-machine/-procs) at the preset's scale with the observability layer
// attached, then prints sparkline time series and the operator table and
// writes the requested export files. -fig defaults to 'none' in this mode
// unless given explicitly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dssmem"
	"dssmem/internal/machine"
	"dssmem/internal/tpch"
)

func main() {
	preset := flag.String("preset", "medium", "scale preset: tiny, small or medium")
	fig := flag.String("fig", "all", "figure number 2..10, or 'all', or 'none'")
	ablation := flag.String("ablation", "none", "ablation name, 'all', or 'none'")
	format := flag.String("format", "table", "output format: table, csv or json")
	jsonOut := flag.String("json", "", "also write a machine-readable benchmark document (figures, ablations, wall/sim timing) to this file ('-' = stdout)")
	chart := flag.Bool("chart", false, "append terminal sparklines for sweep figures")
	list := flag.Bool("list", false, "list available figures and ablations")
	sample := flag.Uint64("sample", 0, "observed run: sample counters every N simulated cycles")
	sampleOut := flag.String("sample-out", "", "observed run: write sampled windows to this file (.json = JSON, else CSV)")
	events := flag.String("events", "", "observed run: write a Chrome trace-event JSON file (open in Perfetto)")
	byOperator := flag.Bool("by-operator", false, "observed run: attribute counters to query-plan operators")
	query := flag.String("query", "Q6", "observed run: query (Q6, Q21, Q12, Q1)")
	mach := flag.String("machine", "vclass", "observed run: machine (vclass, origin or starfire)")
	procs := flag.Int("procs", 4, "observed run: number of concurrent query processes")
	sampleQuanta := flag.Int("sample-quanta", 0, "SMARTS sampling period in scheduling quanta: simulate 1 of every N in detail (0 or 1 = exact; estimates, cached under their own digests)")
	flag.Parse()

	observed := *sample > 0 || *events != "" || *byOperator
	if observed {
		figSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "fig" {
				figSet = true
			}
		})
		if !figSet {
			*fig = "none"
		}
	}

	if *list {
		fmt.Println("figures: ", dssmem.FigureIDs())
		fmt.Println("ablations:", dssmem.AblationNames())
		return
	}

	p, err := dssmem.PresetByName(*preset)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	env := dssmem.NewEnv(p)
	env.SampleQuanta = *sampleQuanta
	tally := &dssmem.RunTally{}
	env.Tally = tally
	if *format == "table" {
		fmt.Printf("preset %s: SF=%.4f memScale=%d — %d lineitems, %d orders (%.1f MB raw)\n\n",
			p.Name, p.SF, p.MemScale, len(env.Data.Lineitem), len(env.Data.Orders),
			float64(env.Data.RawBytes())/1e6)
	}

	if observed {
		if err := observedRun(env.Data, p, *query, *mach, *procs,
			*sample, *sampleOut, *events, *byOperator); err != nil {
			fatal(err)
		}
	}

	var figs []int
	switch *fig {
	case "all":
		figs = dssmem.FigureIDs()
	case "none":
	default:
		n, err := strconv.Atoi(*fig)
		if err != nil {
			fatal(fmt.Errorf("bad -fig %q: %w", *fig, err))
		}
		figs = []int{n}
	}
	doc := benchDoc{
		Preset:   p.Name,
		SF:       p.SF,
		MemScale: p.MemScale,
		Go:       runtime.Version(),
	}
	emit := func(r *dssmem.FigureResult) {
		var err error
		switch *format {
		case "csv":
			err = r.WriteCSV(os.Stdout)
		case "json":
			err = r.WriteJSON(os.Stdout)
		default:
			_, err = r.WriteTo(os.Stdout)
			if err == nil && *chart {
				err = r.WriteChart(os.Stdout)
			}
		}
		if err != nil {
			fatal(err)
		}
	}
	timed := func(run func() (*dssmem.FigureResult, error)) *dssmem.FigureResult {
		begin := time.Now()
		runs0, warm0, meas0 := tally.Snapshot()
		r, err := run()
		if err != nil {
			fatal(err)
		}
		runs1, warm1, meas1 := tally.Snapshot()
		doc.add(r, time.Since(begin), runSplit{
			Runs:       runs1 - runs0,
			WarmupMS:   float64((warm1-warm0)/1000 /*ns→µs*/) / 1e3,
			MeasuredMS: float64((meas1-meas0)/1000) / 1e3,
		})
		return r
	}
	for _, id := range figs {
		id := id
		emit(timed(func() (*dssmem.FigureResult, error) { return dssmem.RunFigure(env, id, nil) }))
	}

	var abls []string
	switch *ablation {
	case "all":
		abls = dssmem.AblationNames()
	case "none", "":
	default:
		abls = []string{*ablation}
	}
	for _, name := range abls {
		name := name
		emit(timed(func() (*dssmem.FigureResult, error) { return dssmem.RunAblation(env, name, nil) }))
	}
	if *jsonOut != "" {
		doc.TotalWallMS = float64(time.Since(start).Microseconds()) / 1e3
		if err := writeBenchDoc(*jsonOut, &doc); err != nil {
			fatal(err)
		}
		if *format == "table" && *jsonOut != "-" {
			fmt.Printf("benchmark document written to %s\n", *jsonOut)
		}
	}
	if *format == "table" {
		fmt.Printf("total: %s\n", time.Since(start).Truncate(time.Millisecond))
	}
}

// benchDoc is the machine-readable trajectory record emitted by -json: one
// entry per figure/ablation with host wall time and the slowest cell's
// simulated wall time, so CI can populate BENCH_*.json files from a run.
type benchDoc struct {
	Preset      string       `json:"preset"`
	SF          float64      `json:"sf"`
	MemScale    int          `json:"mem_scale"`
	Go          string       `json:"go"`
	Figures     []benchEntry `json:"figures,omitempty"`
	Ablations   []benchEntry `json:"ablations,omitempty"`
	TotalWallMS float64      `json:"total_wall_ms"`
}

type benchEntry struct {
	ID            string  `json:"id"`
	WallMS        float64 `json:"wall_ms"`
	SimSecondsMax float64 `json:"sim_seconds_max,omitempty"`
	// The per-run host-time split: simulations executed for this entry (cache
	// hits excluded — nothing ran) and where the host wall-clock went.
	Runs       int                  `json:"runs"`
	WarmupMS   float64              `json:"warmup_ms"`
	MeasuredMS float64              `json:"measured_ms"`
	Result     *dssmem.FigureResult `json:"result"`
}

// runSplit is the tally delta attributed to one figure/ablation entry.
type runSplit struct {
	Runs       int
	WarmupMS   float64
	MeasuredMS float64
}

// add records a completed figure or ablation with its timing.
func (d *benchDoc) add(r *dssmem.FigureResult, wall time.Duration, split runSplit) {
	e := benchEntry{
		ID:         r.ID,
		WallMS:     float64(wall.Microseconds()) / 1e3,
		Runs:       split.Runs,
		WarmupMS:   split.WarmupMS,
		MeasuredMS: split.MeasuredMS,
		Result:     r,
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.WallSeconds > e.SimSecondsMax {
				e.SimSecondsMax = p.WallSeconds
			}
		}
	}
	if _, err := strconv.Atoi(strings.TrimPrefix(r.ID, "fig")); err == nil && strings.HasPrefix(r.ID, "fig") {
		d.Figures = append(d.Figures, e)
	} else {
		d.Ablations = append(d.Ablations, e)
	}
}

func writeBenchDoc(path string, doc *benchDoc) error {
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	if path == "-" {
		return write(os.Stdout)
	}
	return emitFile(path, write)
}

// observedRun executes one configuration with the observability layer
// attached and emits its telemetry.
func observedRun(data *dssmem.Data, p dssmem.Preset, query, mach string, procs int,
	sample uint64, sampleOut, events string, byOperator bool) error {
	q, err := tpch.QueryByName(query)
	if err != nil {
		return err
	}
	spec, err := machine.SpecByName(mach, 0, p.MemScale)
	if err != nil {
		return err
	}

	ob := dssmem.NewObserver(dssmem.ObsConfig{
		SampleInterval: sample,
		Events:         events != "",
		ByOperator:     byOperator,
	})
	st, err := dssmem.Run(dssmem.RunOptions{
		Spec: spec, Data: data, Query: q, Processes: procs,
		OSTimeScale: p.MemScale, Obs: ob,
	})
	if err != nil {
		return err
	}
	m := dssmem.Measure(st)
	fmt.Printf("observed run: %s on %s, %d process(es) — CPI %.3f, mem latency %.1f cycles\n\n",
		q, spec.Name, procs, m.CPI, m.MemLatencyCycles)
	if err := ob.WriteSummary(os.Stdout); err != nil {
		return err
	}
	if sampleOut != "" {
		if err := emitFile(sampleOut, func(w io.Writer) error {
			if strings.HasSuffix(sampleOut, ".json") {
				return ob.WriteSamplesJSON(w)
			}
			return ob.WriteSamplesCSV(w)
		}); err != nil {
			return err
		}
		fmt.Printf("samples written to %s\n", sampleOut)
	}
	if events != "" {
		if err := emitFile(events, ob.WriteTrace); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (open in Perfetto or chrome://tracing)\n", events)
	}
	return nil
}

// emitFile creates path, runs emit on it and surfaces close errors.
func emitFile(path string, emit func(io.Writer) error) error {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dssbench:", err)
	os.Exit(1)
}
