package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one interval the benchmark timed around a call into a layer.
// Times are offsets from the recorder's origin. A span's parent always has a
// smaller ID, and Parent is -1 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover. Children may overlap each other (runs of one pass
// execute concurrently); the overlap is counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type interval struct{ a, b time.Duration }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		if a, b := max(k.Start, parent.Start), min(k.End, parent.End); b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	for i := 0; i < len(ivs); {
		cur := ivs[i]
		for i++; i < len(ivs) && ivs[i].a <= cur.b; i++ {
			cur.b = max(cur.b, ivs[i].b)
		}
		total += cur.b - cur.a
	}
	return total
}

// lanes assigns each span a trace-viewer thread so that spans on one thread
// nest: roots share lane 0, each root's children take the lowest lane free at
// their start, and deeper spans inherit their ancestor's lane.
func lanes(spans []span) []int {
	lane := make([]int, len(spans))
	var top []int
	for i, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 {
			top = append(top, i)
		}
	}
	sort.SliceStable(top, func(a, b int) bool { return spans[top[a]].Start < spans[top[b]].Start })
	var busyUntil []time.Duration
	for _, i := range top {
		l := 0
		for l < len(busyUntil) && busyUntil[l] > spans[i].Start {
			l++
		}
		if l == len(busyUntil) {
			busyUntil = append(busyUntil, 0)
		}
		busyUntil[l] = spans[i].End
		lane[i] = l + 1
	}
	for i, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Parent >= 0 {
			lane[i] = lane[s.Parent]
		}
	}
	return lane
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete "X"
// events in microseconds), loadable in Perfetto or chrome://tracing.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	lane := lanes(spans)
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: lane[i],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": us(self[i])},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
