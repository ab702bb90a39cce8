package main

import (
	"encoding/json"
	"testing"
	"time"

	"dssmem"
)

// TestBenchEntryJSONShape pins the -json document's per-entry shape: external
// consumers (CI trend scripts, BENCH_*.json diffs) key on these exact names,
// so a rename or reorder must be deliberate.
func TestBenchEntryJSONShape(t *testing.T) {
	e := benchEntry{
		ID:            "fig5",
		WallMS:        1.5,
		SimSecondsMax: 2,
		Runs:          15,
		WarmupMS:      3.25,
		MeasuredMS:    40.5,
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":"fig5","wall_ms":1.5,"sim_seconds_max":2,"runs":15,"warmup_ms":3.25,"measured_ms":40.5,"result":null}`
	if string(b) != want {
		t.Fatalf("benchEntry JSON shape changed:\nwant %s\ngot  %s", want, b)
	}
}

// TestBenchDocSplitAccounting checks that the tally deltas land on the entry:
// a figure run at tiny scale reports its runs and a non-zero time split.
func TestBenchDocSplitAccounting(t *testing.T) {
	var doc benchDoc
	r := &dssmem.FigureResult{ID: "fig5"}
	doc.add(r, 10*time.Millisecond, runSplit{Runs: 3, WarmupMS: 1.5, MeasuredMS: 8})
	if len(doc.Figures) != 1 {
		t.Fatalf("fig5 not filed under figures: %+v", doc)
	}
	got := doc.Figures[0]
	if got.Runs != 3 || got.WarmupMS != 1.5 || got.MeasuredMS != 8 {
		t.Fatalf("split not recorded: %+v", got)
	}
}
