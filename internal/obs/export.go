package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dssmem/internal/perfctr"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format" / Perfetto legacy ingestion). Timestamps are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// toMicros converts simulated cycles to trace microseconds. Without a known
// clock rate cycles are exported 1:1 (the viewer's unit is then "cycles").
func (o *Observer) toMicros(cycles uint64) float64 {
	if o.clockMHz > 0 {
		return float64(cycles) / float64(o.clockMHz)
	}
	return float64(cycles)
}

// WriteTrace exports the event buffer as Chrome trace-event JSON: one track
// (tid) per simulated CPU under one process, spans for memory requests,
// back-offs and operators, instants for invalidations, lock acquisitions and
// context switches. Events are sorted by timestamp (stable), so timestamps
// are monotonic within every track. The file opens directly in Perfetto or
// chrome://tracing.
func (o *Observer) WriteTrace(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("obs: no observer")
	}
	evs := make([]chromeEvent, 0, len(o.events)+o.cpus+1)
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]string{"name": "dssmem"},
	})
	for cpu := 0; cpu < o.cpus; cpu++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: cpu,
			Args: map[string]string{"name": fmt.Sprintf("cpu%d", cpu)},
		})
	}
	meta := len(evs)

	body := make([]chromeEvent, 0, len(o.events))
	for i := range o.events {
		e := &o.events[i]
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: string(e.Ph),
			TS: o.toMicros(e.TS), PID: 0, TID: e.CPU,
		}
		if e.Ph == 'X' {
			ce.Dur = o.toMicros(e.Dur)
		}
		if e.Ph == 'i' {
			ce.S = "t" // thread-scoped instant
		}
		args := make(map[string]string, 4)
		switch e.Cat {
		case "mem", "coh":
			args["line"] = fmt.Sprintf("%#x", e.Line)
		case "lock":
			if e.Name == "lock-acquire" {
				args["addr"] = fmt.Sprintf("%#x", e.Line)
			}
		}
		if e.Class != "" {
			args["class"] = e.Class
		}
		if e.Dirty3Hop {
			args["dirty3hop"] = "true"
		}
		if e.Target >= 0 {
			args["target"] = fmt.Sprintf("cpu%d", e.Target)
		}
		if len(args) > 0 {
			ce.Args = args
		}
		body = append(body, ce)
	}
	// Each CPU emits its own events in clock order, but tracks interleave in
	// the buffer; a stable sort by timestamp yields a globally ordered file
	// while preserving per-track emission order for equal timestamps.
	sort.SliceStable(body, func(i, j int) bool { return body[i].TS < body[j].TS })
	evs = append(evs[:meta], body...)

	doc := chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]string{"dropped_events": fmt.Sprint(o.dropped)},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// sampleCSVHeader lists the per-window columns of WriteSamplesCSV.
const sampleCSVHeader = "cpu,start,end,cycles,instructions,cpi,loads,stores," +
	"l1_misses,l2_misses,cold,capacity,coherence,mem_requests,avg_mem_latency," +
	"stall_cycles,dirty3hop,vol_cs,invol_cs,lock_acquires,backoffs\n"

// WriteSamplesCSV exports the sampled windows as CSV, one row per window.
func (o *Observer) WriteSamplesCSV(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("obs: no observer")
	}
	if _, err := io.WriteString(w, sampleCSVHeader); err != nil {
		return err
	}
	for i := range o.samples {
		s := &o.samples[i]
		c := &s.C
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%d,%d,%d,%d,%d,%d\n",
			s.CPU, s.Start, s.End, c.Cycles, c.Instructions, c.CPI(),
			c.Loads, c.Stores, c.L1DMisses, c.L2DMisses,
			c.ColdMisses, c.CapacityMisses, c.CoherenceMisses,
			c.MemRequests, c.AvgMemLatency(), c.StallCycles, c.Dirty3HopMisses,
			c.VolCtxSwitches, c.InvolCtxSwitches, c.LockAcquires, c.LockBackoffs); err != nil {
			return err
		}
	}
	return nil
}

// sampleJSON is the exported form of one window.
type sampleJSON struct {
	CPU           int              `json:"cpu"`
	Start         uint64           `json:"start"`
	End           uint64           `json:"end"`
	CPI           float64          `json:"cpi"`
	L1MissRate    float64          `json:"l1_miss_rate"`
	AvgMemLatency float64          `json:"avg_mem_latency"`
	Counters      perfctr.Counters `json:"counters"`
}

// WriteSamplesJSON exports the sampled windows as a JSON array with the
// derived per-window metrics inlined.
func (o *Observer) WriteSamplesJSON(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("obs: no observer")
	}
	out := make([]sampleJSON, len(o.samples))
	for i := range o.samples {
		s := o.samples[i]
		out[i] = sampleJSON{
			CPU: s.CPU, Start: s.Start, End: s.End,
			CPI:           s.C.CPI(),
			L1MissRate:    perfctr.MissRate(s.C.L1DMisses, s.C.Loads+s.C.Stores),
			AvgMemLatency: s.C.AvgMemLatency(),
			Counters:      s.C,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteOpsTable prints the per-operator attribution as an aligned table:
// execution count, inclusive wall cycles, and the self-time shares of
// instructions, misses and memory latency.
func (o *Observer) WriteOpsTable(w io.Writer) error {
	ops := o.Operators()
	if len(ops) == 0 {
		_, err := fmt.Fprintln(w, "obs: no operator spans recorded")
		return err
	}
	nameW := len("operator")
	for _, op := range ops {
		if len(op.Name) > nameW {
			nameW = len(op.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s %10s %14s %14s %12s %12s %8s %12s\n",
		nameW, "operator", "count", "wall cycles", "instrs", "l1 misses", "mem reqs", "cpi", "avg mem lat"); err != nil {
		return err
	}
	for _, op := range ops {
		c := &op.Self
		if _, err := fmt.Fprintf(w, "%-*s %10d %14d %14d %12d %12d %8.3f %12.1f\n",
			nameW, op.Name, op.Count, op.WallCycles, c.Instructions,
			c.L1DMisses, c.MemRequests, c.CPI(), c.AvgMemLatency()); err != nil {
			return err
		}
	}
	return nil
}
