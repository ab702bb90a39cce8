// Package obs is the simulation-wide observability layer: where perfctr
// models *what* the paper's hardware counters count, obs models *when* —
// the PARASOL-style interval sampling the authors used to watch counters
// evolve over a query run, plus a structured protocol-event trace and
// per-query-operator attribution.
//
// Three pillars:
//
//   - an interval sampler that snapshots each CPU's perfctr.Counters every
//     SampleInterval simulated cycles (driven from the sim kernel's
//     scheduling points), yielding per-window time series of CPI, miss rate
//     and memory latency;
//   - a structured event trace with simulated-cycle timestamps for
//     protocol-level events (directory requests, invalidations, 3-hop dirty
//     misses, lock acquisitions, select() back-offs, context switches),
//     exportable as Chrome trace-event JSON so a run opens directly in
//     Perfetto (one track per simulated CPU, spans for memory requests);
//   - span-based attribution: the DB executor opens spans per query-plan
//     operator (scan, index scan, aggregate, sort), so counters and events
//     are attributed to operators — the paper's "which DBMS data region /
//     which phase" question at operator granularity.
//
// A nil *Observer is valid everywhere and every hook is a no-op on it, so
// observation is strictly zero-cost when disabled. An Observer observes one
// run on one machine; like the machine model itself it relies on the sim
// kernel's serialization and is not safe for use from concurrently running
// simulations.
package obs

import "dssmem/internal/perfctr"

// DefaultMaxEvents bounds the in-memory event buffer (~1M events).
const DefaultMaxEvents = 1 << 20

// Config selects which pillars are active.
type Config struct {
	// SampleInterval is the minimum width of one counter-sampling window in
	// simulated cycles; 0 disables sampling. Windows are closed at the first
	// scheduling point past the interval, so their actual width is
	// interval-or-more (sampling never interrupts a running quantum).
	SampleInterval uint64
	// Events enables the structured event trace.
	Events bool
	// MaxEvents caps the buffered event count (0 selects DefaultMaxEvents);
	// events past the cap are counted in Dropped, never silently lost.
	MaxEvents int
	// ByOperator enables per-operator span attribution.
	ByOperator bool
}

// Sample is one closed sampling window on one CPU. C holds the counter
// deltas over the window, so every perfctr derived metric (CPI,
// AvgMemLatency, ...) applies to the window directly.
type Sample struct {
	CPU        int
	Start, End uint64 // simulated cycles
	C          perfctr.Counters
}

// Event is one timestamped trace event. TS and Dur are simulated cycles of
// the emitting CPU's clock; events emitted by one CPU are therefore
// monotonic within that CPU's track.
type Event struct {
	Name string
	Cat  string // "mem", "coh", "lock", "os", "op"
	Ph   byte   // 'X' (span) or 'i' (instant)
	TS   uint64
	Dur  uint64 // spans only
	CPU  int
	Line uint64 // protocol line or lock address (mem/coh/lock events)
	// Class carries the miss classification or other one-word detail
	// ("cold", "capacity", "coherence", "contended", "voluntary", ...).
	Class string
	// Dirty3Hop marks memory requests served by a dirty remote intervention.
	Dirty3Hop bool
	// Target is the victim CPU of an invalidation (-1 when not applicable).
	Target int
}

// OpStats aggregates every execution of one named operator.
type OpStats struct {
	Name  string
	Count uint64
	// WallCycles is inclusive span time (nested operators count toward
	// their ancestors too).
	WallCycles uint64
	// Self holds exclusive (self-time) counter deltas: work done while a
	// nested operator was open is attributed to the innermost span only.
	Self perfctr.Counters
}

type sampState struct {
	start uint64
	last  perfctr.Counters
}

type opFrame struct {
	name  string
	start uint64
	acc   perfctr.Counters
}

type opState struct {
	stack []opFrame
	mark  perfctr.Counters
}

// Observer collects samples, events and operator attributions for one run.
type Observer struct {
	cfg      Config
	cpus     int
	clockMHz int

	samp    []sampState
	samples []Sample

	events  []Event
	dropped uint64

	ops     []opState
	opStats map[string]*OpStats
	opOrder []string
}

// New creates an Observer; Bind must be called (the workload layer does)
// before any hook fires.
func New(cfg Config) *Observer {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Observer{cfg: cfg, opStats: make(map[string]*OpStats)}
}

// Bind sizes the per-CPU state for a machine. clockMHz scales exported
// timestamps to microseconds (0 exports raw cycles). Bind resets any state
// from a previous binding, so one Observer observes one run.
func (o *Observer) Bind(cpus, clockMHz int) {
	if o == nil {
		return
	}
	o.cpus = cpus
	o.clockMHz = clockMHz
	o.samp = make([]sampState, cpus)
	o.ops = make([]opState, cpus)
	o.samples = nil
	o.events = nil
	o.dropped = 0
	o.opStats = make(map[string]*OpStats)
	o.opOrder = nil
}

// Config returns the active configuration.
func (o *Observer) Config() Config {
	if o == nil {
		return Config{}
	}
	return o.cfg
}

// ---- interval sampler ----

// Tick is called at scheduling points (quantum yields) with CPU cpu's
// current clock and cumulative counter file; it closes the open window once
// the interval has elapsed.
func (o *Observer) Tick(cpu int, now uint64, c *perfctr.Counters) {
	if o == nil || o.cfg.SampleInterval == 0 || cpu >= len(o.samp) {
		return
	}
	s := &o.samp[cpu]
	if now < s.start+o.cfg.SampleInterval {
		return
	}
	o.samples = append(o.samples, Sample{CPU: cpu, Start: s.start, End: now, C: c.Sub(&s.last)})
	s.start = now
	s.last = *c
}

// flushSample closes the final partial window at process exit.
func (o *Observer) flushSample(cpu int, now uint64, c *perfctr.Counters) {
	if o == nil || o.cfg.SampleInterval == 0 || cpu >= len(o.samp) {
		return
	}
	s := &o.samp[cpu]
	if now <= s.start {
		return
	}
	o.samples = append(o.samples, Sample{CPU: cpu, Start: s.start, End: now, C: c.Sub(&s.last)})
	s.start = now
	s.last = *c
}

// Samples returns the closed windows in emission order.
func (o *Observer) Samples() []Sample {
	if o == nil {
		return nil
	}
	return o.samples
}

// SampleSeries extracts one CPU's windows as a float series via metric —
// ready for viz.Sparkline.
func (o *Observer) SampleSeries(cpu int, metric func(*Sample) float64) []float64 {
	if o == nil {
		return nil
	}
	var out []float64
	for i := range o.samples {
		if o.samples[i].CPU == cpu {
			out = append(out, metric(&o.samples[i]))
		}
	}
	return out
}

// ---- event trace ----

func (o *Observer) emit(e Event) {
	if len(o.events) >= o.cfg.MaxEvents {
		o.dropped++
		return
	}
	o.events = append(o.events, e)
}

// MemRequest records one directory transaction as a span on the requesting
// CPU's track. kind is "read", "write" or "upgrade"; now is the request's
// issue time and latency its total memory-system latency.
func (o *Observer) MemRequest(cpu int, kind string, line, now, latency uint64, class string, dirty3hop bool) {
	if o == nil || !o.cfg.Events {
		return
	}
	o.emit(Event{Name: kind, Cat: "mem", Ph: 'X', TS: now, Dur: latency,
		CPU: cpu, Line: line, Class: class, Dirty3Hop: dirty3hop, Target: -1})
}

// Invalidation records a coherence invalidation caused by CPU cpu killing
// target's copy of line. It is attributed to the requester's track (whose
// clock it carries); the victim is in Target.
func (o *Observer) Invalidation(cpu, target int, line, now uint64) {
	if o == nil || !o.cfg.Events {
		return
	}
	o.emit(Event{Name: "invalidate", Cat: "coh", Ph: 'i', TS: now,
		CPU: cpu, Line: line, Target: target})
}

// LockAcquire records a successful spinlock acquisition at the lock word's
// address.
func (o *Observer) LockAcquire(cpu int, addr, now uint64, contended bool) {
	if o == nil || !o.cfg.Events {
		return
	}
	class := ""
	if contended {
		class = "contended"
	}
	o.emit(Event{Name: "lock-acquire", Cat: "lock", Ph: 'i', TS: now,
		CPU: cpu, Line: addr, Class: class, Target: -1})
}

// Backoff records a select() back-off sleep as a span covering the off-CPU
// time.
func (o *Observer) Backoff(cpu int, now, sleep uint64) {
	if o == nil || !o.cfg.Events {
		return
	}
	o.emit(Event{Name: "backoff", Cat: "lock", Ph: 'X', TS: now, Dur: sleep,
		CPU: cpu, Target: -1})
}

// CtxSwitch records an OS context switch.
func (o *Observer) CtxSwitch(cpu int, now uint64, voluntary bool) {
	if o == nil || !o.cfg.Events {
		return
	}
	class := "involuntary"
	if voluntary {
		class = "voluntary"
	}
	o.emit(Event{Name: "ctx-switch", Cat: "os", Ph: 'i', TS: now,
		CPU: cpu, Class: class, Target: -1})
}

// Events returns the buffered events in emission order.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.events
}

// Dropped reports events discarded past MaxEvents.
func (o *Observer) Dropped() uint64 {
	if o == nil {
		return 0
	}
	return o.dropped
}

// ---- operator spans ----

// Spanner is the optional process capability operator attribution needs;
// *simos.Process implements it. Executor code asserts it and defers EndOp
// directly, so opening a span allocates nothing:
//
//	if sp, ok := ctx.S.P.(obs.Spanner); ok {
//		sp.BeginOp(rel.ScanSpan)
//		defer sp.EndOp()
//	}
type Spanner interface {
	BeginOp(name string)
	EndOp()
}

// settle charges the counter delta since the CPU's last transition to the
// innermost open span, establishing exclusive self-time attribution.
func (o *Observer) settle(s *opState, c *perfctr.Counters) {
	if n := len(s.stack); n > 0 {
		d := c.Sub(&s.mark)
		s.stack[n-1].acc.Add(&d)
	}
	s.mark = *c
}

// BeginOp opens span name on CPU cpu at time now; c is the CPU's cumulative
// counter file.
func (o *Observer) BeginOp(cpu int, name string, now uint64, c *perfctr.Counters) {
	if o == nil || !o.cfg.ByOperator || cpu >= len(o.ops) {
		return
	}
	s := &o.ops[cpu]
	o.settle(s, c)
	s.stack = append(s.stack, opFrame{name: name, start: now})
}

// EndOp closes the innermost span on CPU cpu.
func (o *Observer) EndOp(cpu int, now uint64, c *perfctr.Counters) {
	if o == nil || !o.cfg.ByOperator || cpu >= len(o.ops) {
		return
	}
	s := &o.ops[cpu]
	n := len(s.stack)
	if n == 0 {
		return
	}
	o.settle(s, c)
	f := s.stack[n-1]
	s.stack = s.stack[:n-1]
	o.recordOp(cpu, f, now)
}

func (o *Observer) recordOp(cpu int, f opFrame, now uint64) {
	st := o.opStats[f.name]
	if st == nil {
		st = &OpStats{Name: f.name}
		o.opStats[f.name] = st
		o.opOrder = append(o.opOrder, f.name)
	}
	st.Count++
	st.WallCycles += now - f.start
	st.Self.Add(&f.acc)
	if o.cfg.Events {
		o.emit(Event{Name: f.name, Cat: "op", Ph: 'X', TS: f.start, Dur: now - f.start,
			CPU: cpu, Target: -1})
	}
}

// ProcExit flushes a CPU's observer state when its process completes:
// the final sampling window closes and any spans still open are recorded.
func (o *Observer) ProcExit(cpu int, now uint64, c *perfctr.Counters) {
	if o == nil {
		return
	}
	o.flushSample(cpu, now, c)
	if o.cfg.ByOperator && cpu < len(o.ops) {
		s := &o.ops[cpu]
		for len(s.stack) > 0 {
			o.EndOp(cpu, now, c)
		}
	}
}

// Operators returns per-operator statistics in first-seen order.
func (o *Observer) Operators() []OpStats {
	if o == nil {
		return nil
	}
	out := make([]OpStats, 0, len(o.opOrder))
	for _, name := range o.opOrder {
		out = append(out, *o.opStats[name])
	}
	return out
}
