package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// report is a saved run of one or more workloads, the input of -diff.
type report struct {
	Host      string                     `json:"host"`
	NProc     int                        `json:"nproc"`
	Go        string                     `json:"go"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	TotalS    float64                    `json:"total_s,omitempty"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func newReport(c runConfig) *report {
	return &report{
		Host:      cpuModel(),
		NProc:     runtime.NumCPU(),
		Go:        runtime.Version(),
		Seed:      c.seed,
		Seconds:   c.seconds,
		Workloads: map[string]*workloadReport{},
	}
}

// cpuModel names the host's processor, from /proc/cpuinfo where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOOS + "/" + runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

func writeReport(path string, r *report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the one-line result: with trace off the end-to-end
// metrics, with trace on the per-layer ones.
func printResult(w io.Writer, r *workloadReport, trace bool) error {
	metrics := make(map[string]value, len(r.Metrics))
	for name, s := range r.Metrics {
		metrics[name] = value{finite(s.Value), s.Unit}
	}
	if trace {
		metrics = make(map[string]value, len(r.Layers))
		for name, v := range r.Layers {
			metrics[name] = value{finite(v.Value), v.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// finite maps the NaN or infinity of an undefined ratio to 0, which JSON
// can carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// printHuman writes a readable account of one workload run.
func printHuman(w io.Writer, name string, seed uint64, r *workloadReport) {
	pin := "not pinned for this seed"
	switch {
	case r.Pinned == r.Digest:
		pin = "matches the pin"
	case r.Pinned != "":
		pin = "DIFFERS from the pinned " + r.Pinned
	}
	fmt.Fprintf(w, "== %s seed %d: %d passes, %d/%d ops failed (error_rate %.4g), correct=%v\n",
		name, seed, r.Passes, r.Failed, r.Attempted, float64(r.Failed)/float64(max(1, r.Attempted)), r.Correct)
	fmt.Fprintf(w, "   output %s (%s)\n", r.Digest, pin)
	for _, m := range endToEnd {
		s := r.Metrics[m.name]
		fmt.Fprintf(w, "   %-11s %12.5g %-3s  per pass [q1 %.5g, q3 %.5g] n=%d, spread of the value %.1f%%\n",
			m.name, s.Value, s.Unit, s.Q1, s.Q3, s.N, 100*s.spread())
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-18s %.5g\n", k, r.Info[k])
	}
	if r.Layers == nil {
		return
	}
	fmt.Fprintf(w, "   per layer (traced pass and probes):\n")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "     %-30s %14.6g %s\n", m.name, r.Layers[m.name].Value, m.unit)
	}
	for _, q := range []string{"q6", "q21", "q12"} {
		l := func(n string) float64 { return r.Layers[n].Value }
		fmt.Fprintf(w, "   %s 1-proc Origin run %.1f ms = db %.1f + machine replay %.1f + simos/sim residual %.1f\n", q,
			l("simos.measured_"+q+"_ms"), l("db."+q+"_ms"), l("machine.replay_"+q+"_ms"), l("simos.residual_"+q+"_ms"))
	}
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or the nearest
// parent that has one (dssperf runs from the repository root or bench/).
func loadSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above")
		}
		dir = parent
	}
}

// absSlack is a change, in the metric's unit, that -diff reads as unchanged
// whatever the bound. Set-up takes a few milliseconds, and on a shared host
// a few milliseconds move by a third between runs; work moved into set-up
// still shows, as a multiple of it.
var absSlack = map[string]float64{"setup_s": 0.005}

// verdict classifies cur against base for one metric, given the direction
// and regression bound BENCHMARK.json fixes for it. change is positive when
// cur is worse. When the base's spread is wider than the bound, the metric
// is unresolved unless cur's worse per-pass quartile beats base's better one
// and the change exceeds the bound.
func verdict(base, cur summary, better string, bound, slack float64) (v string, change float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if base.Value == 0 {
		return "unresolved", 0
	}
	change = sign * (cur.Value - base.Value) / math.Abs(base.Value)
	if math.Abs(cur.Value-base.Value) <= slack {
		return "unchanged", change
	}
	if base.spread() > bound {
		curWorst := math.Max(sign*cur.Q1, sign*cur.Q3)
		baseBest := math.Min(sign*base.Q1, sign*base.Q3)
		if change < -bound && curWorst < baseBest {
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "unchanged", change
}

// diff prints, for every workload in both reports, a row with its overall
// verdict and then each end-to-end metric's medians, quartiles and verdict.
// It returns how many metrics got worse.
func diff(w io.Writer, base, cur *report, spec *benchSpec) int {
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if cur.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rank := map[string]int{"unchanged": 0, "better": 1, "unresolved": 2, "worse": 3}
	worse := 0
	for _, name := range names {
		b, c := base.Workloads[name], cur.Workloads[name]
		var rows []string
		overall := "unchanged"
		for _, m := range spec.EndToEnd {
			bs, ok1 := b.Metrics[m.Name]
			cs, ok2 := c.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, change := verdict(bs, cs, m.Better, m.Bound, absSlack[m.Name])
			if rank[v] > rank[overall] {
				overall = v
			}
			if v == "worse" {
				worse++
			}
			rows = append(rows, fmt.Sprintf("  %-11s base %10.5g [%.5g, %.5g]  new %10.5g [%.5g, %.5g]  %+7.2f%% (bound %.0f%%)  %s",
				m.Name, bs.Value, bs.Q1, bs.Q3, cs.Value, cs.Q1, cs.Q3, 100*change, 100*m.Bound, v))
		}
		fmt.Fprintf(w, "%-13s %s (correct: base %v, new %v)\n", name, overall, b.Correct, c.Correct)
		for _, row := range rows {
			fmt.Fprintln(w, row)
		}
	}
	return worse
}
