package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"dssmem/internal/machine"
	"dssmem/internal/memsys"
	"dssmem/internal/tpch"
)

// event mirrors one charge for round-trip checking.
type event struct {
	op   byte
	addr memsys.Addr
	n    uint64
}

type recorder struct{ events []event }

func (r *recorder) Load(a memsys.Addr, s int)  { r.events = append(r.events, event{0, a, uint64(s)}) }
func (r *recorder) Store(a memsys.Addr, s int) { r.events = append(r.events, event{1, a, uint64(s)}) }
func (r *recorder) Work(n uint64)              { r.events = append(r.events, event{2, 0, n}) }

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Load(0x1000, 8)
	w.Store(0x1008, 4)
	w.Work(100)
	w.Load(0x10, 2) // backwards delta
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 4 {
		t.Fatalf("events = %d", w.Events())
	}

	var rec recorder
	n, err := Replay(&buf, &rec)
	if err != nil || n != 4 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	want := []event{{0, 0x1000, 8}, {1, 0x1008, 4}, {2, 0, 100}, {0, 0x10, 2}}
	for i, e := range want {
		if rec.events[i] != e {
			t.Fatalf("event %d: got %+v want %+v", i, rec.events[i], e)
		}
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(strings.NewReader("not a trace at all"), &recorder{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Replay(strings.NewReader(""), &recorder{}); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid header, truncated body.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Load(0x1234, 8)
	w.Flush()
	raw := buf.Bytes()
	if _, err := Replay(bytes.NewReader(raw[:len(raw)-1]), &recorder{}); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// A load of 2^40 bytes would have a machine walk 2^35 lines; a zero-size
// access charges nothing. Both are errors naming the event and the size.
func TestReplayRejectsBadSize(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		size string
	}{
		{"DSSTRC1\n\x00\x00\x80\x80\x80\x80\x80\x20", "1099511627776"},
		{"DSSTRC1\n\x02\x05\x01\x00\x00", "0"},
		{"DSSTRC1\n\x01\x00\x81\x20", "4097"},
	} {
		var rec recorder
		_, err := Replay(strings.NewReader(tc.raw), &rec)
		if err == nil || !strings.Contains(err.Error(), "access size "+tc.size+" outside 1..4096") {
			t.Errorf("%q: err = %v, want access size %s rejected", tc.raw, err, tc.size)
		}
		for _, e := range rec.events {
			if e.op != 2 {
				t.Errorf("%q: replayed %+v before the error", tc.raw, e)
			}
		}
	}
}

// boundedMem fails on any access a real machine could not take in one
// piece; Replay must reject such an access before it reaches mem.
type boundedMem struct{ t *testing.T }

func (m boundedMem) Load(a memsys.Addr, size int)  { m.check(size) }
func (m boundedMem) Store(a memsys.Addr, size int) { m.check(size) }
func (m boundedMem) Work(uint64)                   {}

func (m boundedMem) check(size int) {
	if size < 1 || size > memsys.PageSize {
		m.t.Fatalf("access of %d bytes reached mem", size)
	}
}

// FuzzReplay feeds arbitrary bytes after a valid header: Replay returns an
// error or an event count, never hands mem an out-of-range size, and never
// panics. CI runs it as a short -fuzz smoke.
func FuzzReplay(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Load(0x1000, 8)
	w.Store(0x10, 16)
	w.Work(3)
	w.Flush()
	f.Add(buf.Bytes()[len(header):])
	f.Add([]byte("\x00\x00\x80\x80\x80\x80\x80\x20"))
	f.Add([]byte("\x01\x00\x00"))
	f.Fuzz(func(t *testing.T, body []byte) {
		Replay(bytes.NewReader(append(append([]byte{}, header...), body...)), boundedMem{t})
	})
}

var errWriterBroken = errors.New("writer broken")

// failAfter fails every Write once n bytes have been accepted.
type failAfter struct {
	n     int
	wrote int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.n {
		return 0, errWriterBroken
	}
	f.wrote += len(p)
	return len(p), nil
}

func TestFlushSurfacesDeferredError(t *testing.T) {
	// The events fit bufio's buffer, so the failure only shows when Flush
	// pushes them to the broken underlying writer; both Flush and Err must
	// report it.
	w, err := NewWriter(&failAfter{n: len(header)})
	if err != nil {
		t.Fatal(err)
	}
	w.Load(0x1000, 8)
	w.Work(5)
	if err := w.Flush(); err == nil {
		t.Fatal("Flush swallowed the underlying write error")
	}
	if w.Err() == nil {
		t.Fatal("Err nil after failed Flush")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("second Flush lost the sticky error")
	}
}

func TestWriterDefersMidStreamError(t *testing.T) {
	// When the underlying writer breaks mid-stream, the Writer reports the
	// error through Err and Flush rather than dropping events silently.
	w, err := NewWriter(&failAfter{n: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ { // >1 bufio buffer of encoded events
		w.Load(memsys.Addr(i*64), 8)
	}
	if w.Err() == nil {
		t.Fatal("mid-stream write error not deferred to Err")
	}
	if w.Flush() == nil {
		t.Fatal("Flush must surface the mid-stream error")
	}
	if w.Events() >= 4096 {
		t.Fatalf("recording should stop at the first failure, got %d events", w.Events())
	}
}

func TestCaptureQueryPropagatesWriteError(t *testing.T) {
	data := tpch.Generate(0.001, 7)
	if _, err := CaptureQuery(&failAfter{n: 8192}, data, tpch.Q6); err == nil {
		t.Fatal("CaptureQuery ignored the broken writer")
	}
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if unzigzag(zigzag(d)) != d {
			t.Fatalf("zigzag(%d) broken", d)
		}
	}
}

// Property: any event sequence round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		var want []event
		for _, o := range ops {
			switch o % 3 {
			case 0:
				a := memsys.Addr(o) * 7
				w.Load(a, 8)
				want = append(want, event{0, a, 8})
			case 1:
				a := memsys.Addr(o) * 3
				w.Store(a, 4)
				want = append(want, event{1, a, 4})
			default:
				w.Work(uint64(o % 1000))
				want = append(want, event{2, 0, uint64(o % 1000)})
			}
		}
		if w.Flush() != nil {
			return false
		}
		var rec recorder
		n, err := Replay(&buf, &rec)
		if err != nil || n != uint64(len(want)) {
			return false
		}
		for i := range want {
			if rec.events[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialCompression(t *testing.T) {
	// A sequential scan should cost ~3 bytes/event (op + tiny delta + size).
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 10_000; i++ {
		w.Load(memsys.Addr(i*8), 8)
	}
	w.Flush()
	perEvent := float64(buf.Len()) / 10_000
	if perEvent > 4 {
		t.Fatalf("%.2f bytes/event, want compact encoding", perEvent)
	}
}

func TestCaptureAndAnalyzeQuery(t *testing.T) {
	data := tpch.Generate(0.001, 7)
	var buf bytes.Buffer
	n, err := CaptureQuery(&buf, data, tpch.Q6)
	if err != nil {
		t.Fatal(err)
	}
	if n < uint64(len(data.Lineitem)) {
		t.Fatalf("trace too small: %d events for %d rows", n, len(data.Lineitem))
	}
	st, err := Analyze(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads == 0 || st.Stores == 0 || st.WorkOps == 0 || st.DistinctLines == 0 {
		t.Fatalf("analysis empty: %+v", st)
	}
	if st.Instructions <= st.Loads {
		t.Fatal("instruction estimate missing work")
	}
}

func TestReplayOntoMachineMatchesExecution(t *testing.T) {
	// Trace-driven and execution-driven modes must see the same reference
	// stream: replaying a 1-process capture onto a machine yields the same
	// loads/stores the machine counters would show.
	data := tpch.Generate(0.001, 7)
	var buf bytes.Buffer
	if _, err := CaptureQuery(&buf, data, tpch.Q12); err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.VClassSpec(2, 256))
	mem := &MachineMem{M: m, CPU: 0}
	if _, err := Replay(bytes.NewReader(buf.Bytes()), mem); err != nil {
		t.Fatal(err)
	}
	ct := m.Counters(0)
	if ct.Loads == 0 || ct.L1DMisses == 0 || mem.Cycles() == 0 {
		t.Fatalf("replay drove nothing: %+v", ct)
	}
	// CPI of the replayed stream should land in the usual band.
	if cpi := ct.CPI(); cpi < 1.0 || cpi > 3.0 {
		t.Fatalf("replayed CPI %.3f out of band", cpi)
	}
}
