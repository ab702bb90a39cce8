package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dssmem/internal/core"
	"dssmem/internal/obs"
	"dssmem/internal/perfctr"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// sharedEnv is built once: the tiny preset keeps every figure fast, and the
// run cache makes later tests nearly free.
var sharedEnv = NewEnv(Tiny)

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", ""} {
		if _, err := PresetByName(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := PresetByName("bogus"); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

func TestEnvCaching(t *testing.T) {
	e := sharedEnv
	spec := e.VClass()
	a, err := e.Measure(spec, tpch.Q6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Measure(spec, tpch.Q6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned a different measurement")
	}
}

func TestSweepOrdering(t *testing.T) {
	e := sharedEnv
	s, err := e.Sweep(e.VClass().Name, e.VClass(), tpch.Q6, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(ProcCounts) {
		t.Fatalf("points = %d", len(s.Points))
	}
	for i, n := range ProcCounts {
		if s.Points[i].Processes != n {
			t.Fatalf("point %d has %d processes, want %d", i, s.Points[i].Processes, n)
		}
	}
}

func TestAllFiguresRun(t *testing.T) {
	for _, id := range FigureIDs() {
		var buf bytes.Buffer
		r, err := RunFigure(sharedEnv, id, &buf)
		if err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		if len(r.Rows) == 0 || len(r.Headers) == 0 {
			t.Fatalf("figure %d produced no table", id)
		}
		out := buf.String()
		if !strings.Contains(out, r.Title) || !strings.Contains(out, "Q21") {
			t.Fatalf("figure %d output malformed:\n%s", id, out)
		}
	}
}

func TestUnknownFigureAndAblation(t *testing.T) {
	if _, err := RunFigure(sharedEnv, 1, nil); err == nil {
		t.Fatal("figure 1 is the architecture diagram, not an experiment")
	}
	if _, err := RunAblation(sharedEnv, "nope", nil); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestAllAblationsRun(t *testing.T) {
	for _, name := range AblationNames() {
		var buf bytes.Buffer
		r, err := RunAblation(sharedEnv, name, &buf)
		if err != nil {
			t.Fatalf("ablation %s: %v", name, err)
		}
		if len(r.Rows) < 2 {
			t.Fatalf("ablation %s: too few rows", name)
		}
	}
}

// Shape checks on the tiny preset: the paper's headline claims should hold
// qualitatively even at the smallest scale.
func TestShapeQ6MissRatio(t *testing.T) {
	r, err := Fig4(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	var q6h, q6s core.Measurement
	// Recompute from cached runs for precision.
	q6hM, _ := sharedEnv.Measure(sharedEnv.VClass(), tpch.Q6, 1)
	q6sM, _ := sharedEnv.Measure(sharedEnv.Origin(), tpch.Q6, 1)
	q6h, q6s = q6hM, q6sM
	ratio := q6s.L1Misses / q6h.L1Misses
	if ratio < 1.3 || ratio > 6 {
		t.Fatalf("Q6 SGI-L1/HPV ratio %.2f outside the paper's neighbourhood (~2x)", ratio)
	}
	_ = r
}

func TestShapeQ21L2Advantage(t *testing.T) {
	h, err := sharedEnv.Measure(sharedEnv.VClass(), tpch.Q21, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sharedEnv.Measure(sharedEnv.Origin(), tpch.Q21, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.L2Misses >= h.L1Misses {
		t.Fatalf("Origin L2 misses (%.3g) should be far below HPV Dcache misses (%.3g) for the index query",
			s.L2Misses, h.L1Misses)
	}
}

func TestShapeVolDominatesInvol(t *testing.T) {
	m, err := sharedEnv.Measure(sharedEnv.VClass(), tpch.Q21, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.VolPerM <= m.InvolPerM {
		t.Fatalf("voluntary (%.2f) should dominate involuntary (%.2f) at 8 processes", m.VolPerM, m.InvolPerM)
	}
	one, err := sharedEnv.Measure(sharedEnv.VClass(), tpch.Q21, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.VolPerM != 0 {
		t.Fatalf("single process should have no voluntary switches, got %.2f", one.VolPerM)
	}
}

func TestShapeOriginLatencyGrows(t *testing.T) {
	s, err := sharedEnv.Sweep(sharedEnv.Origin().Name, sharedEnv.Origin(), tpch.Q6, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Growth(core.MetricMemLatency) <= 1.0 {
		t.Fatalf("Origin memory latency should grow with processes, growth=%.3f", s.Growth(core.MetricMemLatency))
	}
}

func TestResultWriteToFormatsColumns(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t",
		Headers: []string{"a", "bbbb"},
		Rows:    [][]string{{"aaaaaa", "b"}},
		Notes:   []string{"n1"},
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n1") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTaxonomyExperiment(t *testing.T) {
	r, err := Taxonomy(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	// 3 queries x 2 machines x 4 regions.
	if len(r.Rows) != 24 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "metadata") {
		t.Fatal("regions missing from output")
	}
}

// regionStats runs one configuration uncached and returns its taxonomy.
func regionStats(e *Env, origin bool, q tpch.QueryID, procs int) (perfctr.RegionCounters, error) {
	spec := e.VClass()
	if origin {
		spec = e.Origin()
	}
	st, err := e.runUncached(q, procs, workload.Options{Spec: spec, Obs: obs.New(obs.Config{Regions: true})})
	if err != nil {
		return perfctr.RegionCounters{}, fmt.Errorf("taxonomy run: %w", err)
	}
	return st.Regions, nil
}

func TestTaxonomyShapes(t *testing.T) {
	// Q6 must not touch index data; Q21 must touch it substantially.
	q6, err := regionStats(sharedEnv, false, tpch.Q6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q6.Accesses[1] != 0 { // RegionIndex
		t.Fatalf("Q6 touched %d index references ('no index data is used')", q6.Accesses[1])
	}
	q21, err := regionStats(sharedEnv, false, tpch.Q21, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q21.Accesses[1] == 0 {
		t.Fatal("Q21 touched no index data")
	}
	// On the Origin, private data misses in the small L1 but is absorbed by
	// the L2 (the locality claim of §3.3).
	o6, err := regionStats(sharedEnv, true, tpch.Q6, 1)
	if err != nil {
		t.Fatal(err)
	}
	const private = 3
	l1Share := float64(o6.L1Misses[private])
	l2Share := float64(o6.L2Misses[private])
	if l2Share >= l1Share {
		t.Fatalf("private data should be filtered by the Origin L2: L1 misses %v, L2 misses %v", l1Share, l2Share)
	}
}

func TestExportCSVAndJSON(t *testing.T) {
	r, err := Fig3(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := r.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(r.Rows) {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+len(r.Rows))
	}
	if !strings.HasPrefix(lines[0], "query,") {
		t.Fatalf("csv header: %s", lines[0])
	}

	var jsonBuf bytes.Buffer
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("json invalid: %v", err)
	}
	if decoded["id"] != "fig3" {
		t.Fatalf("json id: %v", decoded["id"])
	}
}

func TestExportJSONIncludesSeries(t *testing.T) {
	r, err := Fig5(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Series []struct {
			Query  string `json:"query"`
			Points []struct {
				Processes int     `json:"Processes"`
				CPI       float64 `json:"CPI"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Series) != 3 || len(decoded.Series[0].Points) != len(ProcCounts) {
		t.Fatalf("series shape: %+v", decoded.Series)
	}
	if decoded.Series[0].Points[0].CPI <= 1 {
		t.Fatal("measurements not serialized")
	}
}

func TestMixExperiment(t *testing.T) {
	r, err := Mix(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 { // 2 machines x 3 queries
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !strings.HasSuffix(row[4], "x") {
			t.Fatalf("slowdown cell malformed: %v", row)
		}
	}
}
