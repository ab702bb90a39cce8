package telemetry

import (
	"context"
	"testing"
	"time"
)

func TestRequestPhases(t *testing.T) {
	q := NewRequest()
	q.AddPhase(PhaseQueue, 10*time.Millisecond)
	q.AddPhase(PhaseCompute, 30*time.Millisecond)
	q.AddPhase(PhaseCompute, 20*time.Millisecond)

	ph := q.Phases()
	if len(ph) != 2 {
		t.Fatalf("want 2 phases, got %v", ph)
	}
	if ph[0].Name != PhaseQueue || ph[0].Seconds < 0.0099 || ph[0].Seconds > 0.0101 {
		t.Errorf("phase 0 = %+v", ph[0])
	}
	if ph[1].Name != PhaseCompute || ph[1].Seconds < 0.049 || ph[1].Seconds > 0.051 {
		t.Errorf("phase 1 = %+v", ph[1])
	}
}

func TestRequestNilSafety(t *testing.T) {
	var q *Request
	q.AddPhase(PhaseQueue, time.Second)
	q.StartPhase(PhaseCompute)()
	if q.Phases() != nil {
		t.Fatal("nil Request must be inert")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(nil) != nil {
		t.Fatal("nil context must yield nil request")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("bare context must yield nil request")
	}
	q := NewRequest()
	ctx := NewContext(context.Background(), q)
	if FromContext(ctx) != q {
		t.Fatal("request lost in context round trip")
	}
}
