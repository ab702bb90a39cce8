// Package telemetry is the request-scoped observability substrate for the
// serving layer: a dependency-free metrics registry (counters, gauges and
// fixed-bucket histograms; histograms and polled families take labels; atomic
// hot paths and a Prometheus text-format renderer) and per-request phase
// timing (queue wait, cache tier lookups, compute, encode) that flows through
// context. A request carries no identity: the content digest of what it asked
// for already names its response.
//
// Design constraints, in order:
//
//  1. Zero dependencies. Like internal/service's original hand-rolled
//     /metrics, the repository takes no metrics library; the exposition
//     format is convention, and the registry is ~300 lines.
//  2. Atomic hot paths. A resolved series (a *Counter, *Gauge or *Hist
//     child) is mutated with a single atomic op — no locks, no allocation.
//     Label resolution (With) takes a read-lock and allocates a key, so hot
//     callers resolve their children once and keep the pointer.
//  3. One layout, one registration. Every histogram observes into
//     DefBuckets, so per-phase and per-endpoint series merge by addition,
//     and the daemon registers each family name once: the registry keeps
//     no name index and does not check its own constant names (the
//     exposition lint, a test oracle, does).
//  4. Nil-safety. A nil *Request is valid everywhere and every method on it
//     is a no-op, so instrumented code paths cost one predictable branch
//     when telemetry is absent (CLI runs, benchmarks).
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout, in seconds. It spans
// sub-millisecond cache hits to ten-minute figure computations; every
// histogram in the daemon shares it so per-phase and per-endpoint series
// merge bucket-by-bucket.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	}
	return "histogram"
}

// PollFunc emits a polled family's current series, one emit call per series.
// Polled families have no stored children: the collector reads its source
// (e.g. rescache.Stats) at scrape time, so sources that already keep their
// own atomic counters are not duplicated.
type PollFunc func(emit func(v float64, labelValues ...string))

type family struct {
	name   string
	help   string
	kind   kind
	labels []string

	mu     sync.RWMutex
	series map[string]any // label-values key -> *Counter | *Gauge | *Hist
	order  []string       // insertion order of series keys

	poll PollFunc // non-nil for polled families
}

// family registers a new family under name. Each name is registered once: a
// second family of the same name would render a second HELP/TYPE pair.
func (r *Registry) family(name, help string, k kind, labels []string, poll PollFunc) *family {
	f := &family{
		name: name, help: help, kind: k,
		labels: slices.Clone(labels),
		series: make(map[string]any),
		poll:   poll,
	}
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	k := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.series[k]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[k]; ok {
		return c
	}
	c = mk()
	f.series[k] = c
	f.order = append(f.order, k)
	return c
}

// ---- counters ----

// Counter is a monotonically increasing series. Mutations are one atomic op.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, counterKind, nil, nil).
		child(nil, func() any { return new(Counter) }).(*Counter)
}

// ---- gauges ----

// Gauge is an integer series that moves both ways. Mutations are one atomic
// op.
type Gauge struct{ v atomic.Int64 }

// Add adds delta (which may be negative) and returns the new value, so
// callers can gate on the level they just reached (admission control does).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, gaugeKind, nil, nil).
		child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// ---- histograms ----

// Hist is a histogram over DefBuckets. Observe is lock-free: one atomic add
// per bucket, count and sum.
type Hist struct {
	counts []atomic.Uint64 // len(DefBuckets)+1; last is the +Inf overflow
	count  atomic.Uint64
	sum    atomicFloat
}

func newHist() any { return &Hist{counts: make([]atomic.Uint64, len(DefBuckets)+1)} }

// Observe records one value.
func (h *Hist) Observe(v float64) {
	h.counts[sort.SearchFloat64s(DefBuckets, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns the observation count and value sum.
func (h *Hist) Snapshot() (count uint64, sum float64) {
	return h.count.Load(), h.sum.Load()
}

// HistVec is a labeled histogram family.
type HistVec struct{ f *family }

// With resolves the child for the given label values, creating it on first
// use. Resolve once and keep the pointer on hot paths.
func (v *HistVec) With(labelValues ...string) *Hist {
	return v.f.child(labelValues, newHist).(*Hist)
}

// Histogram registers an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Hist {
	return r.family(name, help, histogramKind, nil, nil).child(nil, newHist).(*Hist)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelNames ...string) *HistVec {
	return &HistVec{r.family(name, help, histogramKind, labelNames, nil)}
}

// ---- polled families ----

// PollCounter registers a counter family whose series are read from fn at
// scrape time (sources that keep their own atomic counters, like
// rescache.Stats).
func (r *Registry) PollCounter(name, help string, labelNames []string, fn PollFunc) {
	r.family(name, help, counterKind, labelNames, fn)
}

// PollGauge is PollCounter for gauges.
func (r *Registry) PollGauge(name, help string, labelNames []string, fn PollFunc) {
	r.family(name, help, gaugeKind, labelNames, fn)
}

// ---- atomic float ----

type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// ---- text renderer ----

// WriteText renders every family in registration order in the Prometheus
// text exposition format (version 0.0.4): HELP and TYPE once per family,
// series in first-use order, histograms as cumulative _bucket/_sum/_count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	fams := slices.Clone(r.families)
	r.mu.RUnlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

func (f *family) write(bw *bufio.Writer) {
	fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
	if f.poll != nil {
		f.poll(func(v float64, labelValues ...string) {
			writeSample(bw, f.name, f.labels, labelValues, "", "", v)
		})
		return
	}
	f.mu.RLock()
	keys := slices.Clone(f.order)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.series[k]
	}
	f.mu.RUnlock()
	for i, k := range keys {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(k, "\xff")
		}
		switch m := children[i].(type) {
		case *Counter:
			writeSample(bw, f.name, f.labels, values, "", "", float64(m.Load()))
		case *Gauge:
			writeSample(bw, f.name, f.labels, values, "", "", float64(m.Load()))
		case *Hist:
			cum := uint64(0)
			for bi, b := range DefBuckets {
				cum += m.counts[bi].Load()
				writeSample(bw, f.name+"_bucket", f.labels, values, "le", formatFloat(b), float64(cum))
			}
			count, sum := m.Snapshot()
			writeSample(bw, f.name+"_bucket", f.labels, values, "le", "+Inf", float64(count))
			writeSample(bw, f.name+"_sum", f.labels, values, "", "", sum)
			writeSample(bw, f.name+"_count", f.labels, values, "", "", float64(count))
		}
	}
}

// writeSample emits one series line; extraName/extraValue append a synthetic
// label (histogram "le").
func writeSample(bw *bufio.Writer, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	bw.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		bw.WriteByte('{')
		sep := false
		for i, ln := range labelNames {
			if sep {
				bw.WriteByte(',')
			}
			sep = true
			bw.WriteString(ln)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(labelValues[i]))
			bw.WriteByte('"')
		}
		if extraName != "" {
			if sep {
				bw.WriteByte(',')
			}
			bw.WriteString(extraName)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(extraValue))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
