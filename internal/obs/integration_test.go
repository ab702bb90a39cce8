// Acceptance tests for the observability layer against real workload runs.
// External test package: workload imports obs (via Options.Obs), so the
// in-package form would be an import cycle.
package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dssmem/internal/machine"
	"dssmem/internal/obs"
	"dssmem/internal/oltp"
	"dssmem/internal/perfctr"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

var testData = tpch.Generate(0.002, 7)

func runQ6(t *testing.T, ob *obs.Observer, procs int) *workload.Stats {
	t.Helper()
	st, err := workload.Run(workload.Options{
		Spec: machine.OriginSpec(32, 256), Data: testData, Query: tpch.Q6,
		Processes: procs, OSTimeScale: 256, Obs: ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// traceEvent is the subset of the Chrome trace-event schema the checks need.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// TestChromeTraceWellFormed runs Q6 with the event trace on, exports it,
// parses it back as JSON and checks the events are well-formed with
// monotonic timestamps within every (pid, tid) track.
func TestChromeTraceWellFormed(t *testing.T) {
	ob := obs.New(obs.Config{Events: true, ByOperator: true})
	runQ6(t, ob, 2)
	if len(ob.Events()) == 0 {
		t.Fatal("no events recorded")
	}

	var buf bytes.Buffer
	if err := ob.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	type track struct{ pid, tid int }
	lastTS := map[track]float64{}
	cats := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch e.Ph {
		case "M": // metadata: process/thread names
			if e.Args["name"] == "" {
				t.Fatalf("metadata event %d has no name arg", i)
			}
			continue
		case "X":
			if e.Dur < 0 {
				t.Fatalf("span %d (%s) has negative duration", i, e.Name)
			}
		case "i":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, e.Ph)
		}
		if e.TS < 0 {
			t.Fatalf("event %d (%s) has negative timestamp", i, e.Name)
		}
		k := track{e.PID, e.TID}
		if e.TS < lastTS[k] {
			t.Fatalf("event %d (%s): ts %.3f goes backwards on track %v (last %.3f)",
				i, e.Name, e.TS, k, lastTS[k])
		}
		lastTS[k] = e.TS
		cats[e.Cat]++
	}
	// A 2-process Q6 run must produce memory requests, OS switches and
	// operator spans; lock and coherence traffic depend on contention.
	for _, cat := range []string{"mem", "os", "op"} {
		if cats[cat] == 0 {
			t.Errorf("no %q events in the trace (got %v)", cat, cats)
		}
	}
	if len(lastTS) < 2 {
		t.Errorf("expected events on at least 2 tracks, got %d", len(lastTS))
	}
}

// TestObservationIsPassive runs the same configuration with observability
// off and fully on: the per-CPU hardware counters and the directory stats
// must be byte-identical — observation must never perturb the simulation.
func TestObservationIsPassive(t *testing.T) {
	all := obs.Config{SampleInterval: 500_000, Events: true, ByOperator: true, Regions: true}
	off := runQ6(t, nil, 2)
	ob := obs.New(all)
	on := runQ6(t, ob, 2)
	samePassive(t, "Q6", off, on)

	// The OLTP mix's stores and lock hand-offs go through the same hooks.
	cfg := oltp.DefaultConfig()
	cfg.Transactions = 40
	runOLTP := func(ob *obs.Observer) *workload.Stats {
		st, err := workload.Run(workload.Options{Spec: machine.OriginSpec(32, 256), Processes: 4,
			OSTimeScale: 256, Obs: ob, Program: oltp.NewProgram(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	offOLTP, onOLTP := runOLTP(nil), runOLTP(obs.New(all))
	samePassive(t, "OLTP", offOLTP, onOLTP)
	if onOLTP.Regions.Accesses[perfctr.RegionRecord] == 0 {
		t.Errorf("OLTP: region tallies not collected: %+v", onOLTP.Regions)
	}

	// And the observer actually collected all four pillars, and only an
	// observed run carries region tallies.
	if on.Regions != ob.Regions() || on.Regions.Accesses[perfctr.RegionRecord] == 0 {
		t.Errorf("region tallies not collected: stats %+v, observer %+v", on.Regions, ob.Regions())
	}
	if off.Regions != (perfctr.RegionCounters{}) {
		t.Errorf("an unobserved run tallied regions: %+v", off.Regions)
	}
	if len(ob.Samples()) == 0 {
		t.Error("no samples collected")
	}
	if len(ob.Events()) == 0 {
		t.Error("no events collected")
	}
	if len(ob.Operators()) == 0 {
		t.Error("no operator stats collected")
	}
}

// samePassive asserts that an observed run's per-CPU counters, wall cycles
// and directory stats equal the unobserved run's.
func samePassive(t *testing.T, run string, off, on *workload.Stats) {
	t.Helper()
	if len(off.Procs) != len(on.Procs) {
		t.Fatalf("%s: process counts differ: %d vs %d", run, len(off.Procs), len(on.Procs))
	}
	for i := range off.Procs {
		if off.Procs[i].Counters != on.Procs[i].Counters {
			t.Errorf("%s: CPU %d counters differ with observation on:\noff: %+v\non:  %+v",
				run, i, off.Procs[i].Counters, on.Procs[i].Counters)
		}
		if off.Procs[i].WallCycles != on.Procs[i].WallCycles {
			t.Errorf("%s: CPU %d wall cycles differ: %d vs %d",
				run, i, off.Procs[i].WallCycles, on.Procs[i].WallCycles)
		}
	}
	if off.Dir != on.Dir {
		t.Errorf("%s: directory stats differ:\noff: %+v\non:  %+v", run, off.Dir, on.Dir)
	}
}

// TestSamplesAccounting checks the sampler's bookkeeping on a real run: the
// windows of one CPU tile [0, end) without overlap, are at least the
// interval wide (except the final flush), and their counter deltas sum to
// the CPU's cumulative counter file.
func TestSamplesAccounting(t *testing.T) {
	const interval = 400_000
	ob := obs.New(obs.Config{SampleInterval: interval})
	st := runQ6(t, ob, 2)

	perCPU := map[int][]obs.Sample{}
	for _, s := range ob.Samples() {
		perCPU[s.CPU] = append(perCPU[s.CPU], s)
	}
	if len(perCPU) != 2 {
		t.Fatalf("samples on %d CPUs, want 2", len(perCPU))
	}
	for cpu, ss := range perCPU {
		var prevEnd uint64
		sum := ss[0].C
		for i, s := range ss {
			if s.Start != prevEnd {
				t.Fatalf("cpu%d window %d starts at %d, want %d (windows must tile)",
					cpu, i, s.Start, prevEnd)
			}
			if i > 0 {
				sum.Add(&ss[i].C)
			}
			if width := s.End - s.Start; width < interval && i != len(ss)-1 {
				t.Errorf("cpu%d window %d only %d cycles wide (interval %d)",
					cpu, i, width, interval)
			}
			prevEnd = s.End
		}
		if sum != st.Procs[cpu].Counters {
			t.Errorf("cpu%d window deltas do not sum to the counter file:\nsum:  %+v\nfile: %+v",
				cpu, sum, st.Procs[cpu].Counters)
		}
	}
}

// TestOperatorAttribution checks the span accounting on a real run: Q6 is a
// single sequential scan, so scan self-time must dominate, and the root
// query span's inclusive wall time must cover its children.
func TestOperatorAttribution(t *testing.T) {
	ob := obs.New(obs.Config{ByOperator: true})
	runQ6(t, ob, 1)

	ops := map[string]obs.OpStats{}
	for _, op := range ob.Operators() {
		ops[op.Name] = op
	}
	scan, ok := ops["scan:lineitem"]
	if !ok {
		t.Fatalf("no scan:lineitem span, got %v", keys(ops))
	}
	root, ok := ops["query:Q6"]
	if !ok {
		t.Fatalf("no query:Q6 root span, got %v", keys(ops))
	}
	if scan.Count != 1 || root.Count != 1 {
		t.Errorf("span counts: scan %d, root %d, want 1 and 1", scan.Count, root.Count)
	}
	if root.WallCycles < scan.WallCycles {
		t.Errorf("root wall %d < scan wall %d (inclusive time must cover children)",
			root.WallCycles, scan.WallCycles)
	}
	if scan.Self.Instructions < 10*root.Self.Instructions {
		t.Errorf("scan self-instructions (%d) should dominate the root's (%d): self-time must be exclusive",
			scan.Self.Instructions, root.Self.Instructions)
	}
}

func keys(m map[string]obs.OpStats) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
