package client

// A sweep interrupted by a daemon restart resumes by re-issuing the same GET:
// the daemon keeps each finished point in its result cache, so the client
// needs no journal and no job API, only its retry discipline. These tests
// script the restart from the client's side of the wire.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssmem/internal/fault"
)

const (
	sweepPath = "/v1/sweep?machine=vclass&query=Q6"
	sweepBody = `{"machine":"vclass","query":"Q6","points":[]}`
)

// killMidReply answers like a daemon killed while writing a sweep: the
// headers promise a body that the connection drops partway through.
func killMidReply(t *testing.T, w http.ResponseWriter) {
	conn, buf, err := http.NewResponseController(w).Hijack()
	if err != nil {
		t.Error(err)
		return
	}
	fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(sweepBody), sweepBody[:len(sweepBody)/2])
	buf.Flush()
	conn.Close()
}

// TestResumeSweepRidesOutRestart: the daemon dies mid-reply, answers 503
// while it restarts, then serves the sweep. The client reads the cut body
// as a transport failure, not a result, and retries through to the full
// sweep.
func TestResumeSweepRidesOutRestart(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			killMidReply(t, w)
		case 2:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"starting","retriable":true,"status":503}`)
		default:
			fmt.Fprint(w, sweepBody)
		}
	}))
	defer ts.Close()

	cl := fastClient(t, ts.URL)
	resp, err := cl.Get(context.Background(), sweepPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != sweepBody {
		t.Fatalf("body %q, want the full sweep", resp.Body)
	}
	if resp.Attempts != 3 || calls.Load() != 3 {
		t.Fatalf("attempts %d, server calls %d; want 3 each (cut reply, 503, sweep)", resp.Attempts, calls.Load())
	}
	if st := cl.Stats(); st.Retries != 2 {
		t.Fatalf("stats %+v, want 2 retries", st)
	}
}

// TestResumeSweepFailedJob: once the daemon is back, a sweep that fails for
// good (a non-retriable error) ends the resume at once with the server's
// message; the client does not keep re-issuing it.
func TestResumeSweepFailedJob(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			killMidReply(t, w)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"simulation diverged","retriable":false,"status":500}`)
	}))
	defer ts.Close()

	_, err := fastClient(t, ts.URL).Get(context.Background(), sweepPath)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want an APIError", err)
	}
	if ae.Status != http.StatusInternalServerError || ae.Msg != "simulation diverged" || ae.Retriable || ae.Attempts != 2 {
		t.Fatalf("APIError %+v, want the non-retriable 500 on attempt 2", ae)
	}
	if calls.Load() != 2 {
		t.Fatalf("server calls %d, want 2", calls.Load())
	}
}

// TestResumeSweepNoJournal: resuming needs nothing but the original request.
// Every attempt is the identical sweep GET under one request ID, and no
// other endpoint is consulted.
func TestResumeSweepNoJournal(t *testing.T) {
	var mu sync.Mutex
	var uris, ids, tries []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		uris = append(uris, r.RequestURI)
		ids = append(ids, r.Header.Get("X-Request-ID"))
		tries = append(tries, r.Header.Get("X-Request-Attempt"))
		n := len(uris)
		mu.Unlock()
		if n < 3 {
			killMidReply(t, w)
			return
		}
		fmt.Fprint(w, sweepBody)
	}))
	defer ts.Close()

	resp, err := fastClient(t, ts.URL).Get(context.Background(), sweepPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != sweepBody {
		t.Fatalf("body %q", resp.Body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(uris) != 3 {
		t.Fatalf("server saw %d requests %v, want 3", len(uris), uris)
	}
	for i := range uris {
		if uris[i] != sweepPath {
			t.Errorf("attempt %d requested %q, want the original %q", i+1, uris[i], sweepPath)
		}
		if ids[i] == "" || ids[i] != ids[0] {
			t.Errorf("attempt %d carried request ID %q, want %q", i+1, ids[i], ids[0])
		}
		if tries[i] != strconv.Itoa(i+1) {
			t.Errorf("attempt %d sent X-Request-Attempt %q", i+1, tries[i])
		}
	}
}

// TestResumeSweepCtxBound: with the daemon never coming back (every dial
// refused), the resume stops when the caller's context does, however many
// attempts remain.
func TestResumeSweepCtxBound(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request reached the server despite refused dials")
	}))
	defer ts.Close()

	inj := fault.New(1)
	inj.Set(fault.NetDialErr, 1)
	cl, err := New(Config{
		BaseURL:     ts.URL,
		HTTP:        &http.Client{Transport: fault.Transport{Inner: ts.Client().Transport, Inj: inj}},
		MaxAttempts: 1 << 20,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Get(ctx, sweepPath)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up after %v; the context deadline was 50ms", elapsed)
	}
	if st := cl.Stats(); st.Attempts < 2 {
		t.Fatalf("stats %+v: want the client to have kept retrying until the deadline", st)
	}
}
