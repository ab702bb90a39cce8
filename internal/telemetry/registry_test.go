package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	c.Add(3)
	c.Inc()
	g := r.Gauge("test_depth", "Depth.")
	g.Add(7)
	g.Add(-1)
	r.PollCounter("test_hits_total", "Hits by tier.", []string{"tier"}, func(emit func(float64, ...string)) {
		emit(2, "mem")
		emit(1, "disk")
	})

	out := render(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Ops.\n# TYPE test_ops_total counter\ntest_ops_total 4\n",
		"# TYPE test_depth gauge\ntest_depth 6\n",
		`test_hits_total{tier="mem"} 2`,
		`test_hits_total{tier="disk"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c.Load() != 4 || g.Load() != 6 {
		t.Errorf("Load: counter %d gauge %d", c.Load(), g.Load())
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_sum 56.05",
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if count, sum := h.Snapshot(); count != 5 || sum != 56.05 {
		t.Errorf("Snapshot = %d, %g", count, sum)
	}
}

func TestHistogramBucketEdge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "x")
	h.Observe(1) // le is inclusive: lands in the first bucket
	out := render(t, r)
	if !strings.Contains(out, `edge_seconds_bucket{le="1"} 1`) {
		t.Fatalf("v==bound must count toward le=bound:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.PollCounter("test_esc_total", "Help with \\ and\nnewline.", []string{"path"}, func(emit func(float64, ...string)) {
		emit(1, "a\\b\"c\nd")
	})
	out := render(t, r)
	if !strings.Contains(out, `test_esc_total{path="a\\b\"c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `# HELP test_esc_total Help with \\ and\nnewline.`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	// The linter must parse the escaped form back without complaint.
	rep, err := Lint(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("lint problems on escaped output: %v", rep.Problems)
	}
}

func TestPolledFamilies(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.PollCounter("test_polled_total", "Polled.", []string{"tier"}, func(emit func(float64, ...string)) {
		emit(n, "mem")
		emit(n+1, "disk")
	})
	r.PollGauge("test_uptime_seconds", "Up.", nil, func(emit func(float64, ...string)) {
		emit(12.5)
	})
	out := render(t, r)
	for _, want := range []string{
		`test_polled_total{tier="mem"} 41`,
		`test_polled_total{tier="disk"} 42`,
		"test_uptime_seconds 12.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLintFullOutput is the parser-based lint of a complete realistic
// exposition: HELP/TYPE pairing, label escaping, histogram structure, no
// duplicate series.
func TestLintFullOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests.").Add(10)
	r.PollCounter("app_hits_total", "Hits.", []string{"tier"}, func(emit func(float64, ...string)) { emit(5, "mem") })
	r.Gauge("app_inflight", "Inflight.").Add(2)
	hv := r.HistogramVec("app_seconds", "Latency.", "endpoint")
	hv.With("/v1/measure").Observe(0.2)
	hv.With("/v1/sweep").Observe(3)
	out := render(t, r)
	rep, err := Lint(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("problems: %v", rep.Problems)
	}
	for _, fam := range []string{"app_requests_total", "app_hits_total", "app_inflight", "app_seconds"} {
		if !rep.HasFamily(fam) {
			t.Errorf("family %s not seen", fam)
		}
	}
	for _, s := range []string{"app_seconds_bucket", "app_seconds_sum", "app_seconds_count"} {
		if !rep.HasSeries(s) {
			t.Errorf("series %s not seen", s)
		}
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"no TYPE", "orphan_total 3\n", "no preceding TYPE"},
		{"duplicate series", "# TYPE d_total counter\nd_total{a=\"x\"} 1\nd_total{a=\"x\"} 2\n", "duplicate series"},
		{"TYPE after sample", "# TYPE l_total counter\nl_total 1\n# TYPE l_total counter\n", "duplicate TYPE"},
		{"help after sample", "# TYPE h_total counter\nh_total 1\n# HELP h_total late\n", "after its samples"},
		{"raw quote", "# TYPE q_total counter\nq_total{a=\"x\"y\"} 1\n", "unterminated"},
		{"bad value", "# TYPE v_total counter\nv_total pony\n", "unparseable value"},
		{"missing +Inf", "# TYPE m_seconds histogram\nm_seconds_bucket{le=\"1\"} 1\nm_seconds_sum 1\nm_seconds_count 1\n", "+Inf"},
		{"decreasing buckets", "# TYPE w_seconds histogram\nw_seconds_bucket{le=\"1\"} 5\nw_seconds_bucket{le=\"2\"} 3\nw_seconds_bucket{le=\"+Inf\"} 5\nw_seconds_sum 1\nw_seconds_count 5\n", "decrease"},
		{"missing sum", "# TYPE s_seconds histogram\ns_seconds_bucket{le=\"+Inf\"} 1\ns_seconds_count 1\n", "missing _sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Lint(strings.NewReader(tc.text))
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, p := range rep.Problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a problem containing %q, got %v", tc.want, rep.Problems)
			}
		})
	}
}

// TestRegistryRace hammers every mutation path concurrently with scrapes;
// its value is under -race (CI runs the package that way).
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_ops_total", "x")
	g := r.Gauge("race_depth", "x")
	hv := r.HistogramVec("race_seconds", "x", "phase")
	r.PollGauge("race_polled", "x", nil, func(emit func(float64, ...string)) { emit(float64(c.Load())) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			phases := []string{"queue", "compute", "encode"}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				hv.With(phases[j%3]).Observe(float64(j%100) / 100)
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := r.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Let the writers overlap the scrapers, then stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 3; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	// A final scrape must still be structurally clean.
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := Lint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("post-race lint problems: %v", rep.Problems)
	}
}
