// Command dssbench regenerates the paper's evaluation figures and ablations.
//
// Usage:
//
//	dssbench [-preset tiny|small|medium] [-fig N|all] [-ablation name|all|none]
//	         [-format table|csv|json] [-json FILE]
//
// Examples:
//
//	dssbench -fig all                 # every figure at the default preset
//	dssbench -preset small -fig 9     # just the memory-latency figure
//	dssbench -ablation migratory      # one ablation
//
// To observe one run (counter sampling, a Perfetto trace, per-operator
// attribution), use qrun with -sample, -events or -by-operator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dssmem"
)

func main() {
	preset := flag.String("preset", "medium", "scale preset: tiny, small or medium")
	fig := flag.String("fig", "all", "figure number 2..10, or 'all', or 'none'")
	ablation := flag.String("ablation", "none", "ablation name, 'all', or 'none'")
	format := flag.String("format", "table", "output format: table, csv or json")
	jsonOut := flag.String("json", "", "also write a machine-readable benchmark document (figures, ablations, wall/sim timing) to this file ('-' = stdout, with -format table only)")
	chart := flag.Bool("chart", false, "append terminal sparklines for sweep figures (-format table only)")
	list := flag.Bool("list", false, "list available figures and ablations")
	flag.Parse()

	switch *format {
	case "table", "csv", "json":
	default:
		fatal(fmt.Errorf("unknown -format %q (table|csv|json)", *format))
	}
	if *chart && *format != "table" {
		fatal(fmt.Errorf("-chart needs -format table, not %q", *format))
	}
	// csv and json already own stdout: a second document there would leave
	// output that parses as neither.
	if *jsonOut == "-" && *format != "table" {
		fatal(fmt.Errorf("-json - needs -format table, not %q: write the document to a file", *format))
	}
	// Every name is checked before the data is generated, so a bad one
	// fails at once instead of after the figures before it have run.
	var figs []int
	switch *fig {
	case "all":
		figs = dssmem.FigureIDs()
	case "none":
	default:
		n, err := strconv.Atoi(*fig)
		if err != nil || !slices.Contains(dssmem.FigureIDs(), n) {
			fatal(fmt.Errorf("no figure %q (have %v, all or none)", *fig, dssmem.FigureIDs()))
		}
		figs = []int{n}
	}
	var abls []string
	switch *ablation {
	case "all":
		abls = dssmem.AblationNames()
	case "none", "":
	default:
		if !slices.Contains(dssmem.AblationNames(), *ablation) {
			fatal(fmt.Errorf("no ablation %q (have %v, all or none)", *ablation, dssmem.AblationNames()))
		}
		abls = []string{*ablation}
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
	// The runner sees every simulation and no cache hit: it sums the current
	// entry's runs and their warm-up and measured host time.
	var runs, warmupNS, measuredNS atomic.Int64
	env.Runner = func(ctx context.Context, o dssmem.RunOptions) (*dssmem.RunStats, error) {
		st, err := dssmem.RunContext(ctx, o)
		if err == nil {
			runs.Add(1)
			warmupNS.Add(st.WarmupHostNS)
			measuredNS.Add(st.MeasuredHostNS)
		}
		return st, err
	}
	if *format == "table" {
		fmt.Printf("preset %s: SF=%.4f memScale=%d — %d lineitems, %d orders (%.1f MB raw)\n\n",
			p.Name, p.SF, p.MemScale, len(env.Data.Lineitem), len(env.Data.Orders),
			float64(env.Data.RawBytes())/1e6)
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
		runs.Store(0)
		warmupNS.Store(0)
		measuredNS.Store(0)
		r, err := run()
		if err != nil {
			fatal(err)
		}
		doc.add(r, time.Since(begin), runSplit{
			Runs:       int(runs.Load()),
			WarmupMS:   float64(warmupNS.Load()/1000 /*ns→µs*/) / 1e3,
			MeasuredMS: float64(measuredNS.Load()/1000) / 1e3,
		})
		return r
	}
	for _, id := range figs {
		id := id
		emit(timed(func() (*dssmem.FigureResult, error) { return dssmem.RunFigure(env, id, nil) }))
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

// runSplit is the runner's accounting for one figure/ablation entry.
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
