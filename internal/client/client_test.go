package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func fastClient(t *testing.T, url string) *Client {
	t.Helper()
	c, err := New(Config{BaseURL: url, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"warming up","retriable":true,"status":503}`)
			return
		}
		fmt.Fprint(w, "payload")
	}))
	defer ts.Close()

	resp, err := fastClient(t, ts.URL).Get(context.Background(), "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "payload" || resp.Attempts != 3 {
		t.Fatalf("body %q attempts %d", resp.Body, resp.Attempts)
	}
}

func TestNonRetriableFailsImmediately(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"unknown machine","retriable":false,"status":400}`)
	}))
	defer ts.Close()

	_, err := fastClient(t, ts.URL).Get(context.Background(), "/v1/thing")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err %v, want APIError", err)
	}
	if ae.Status != 400 || ae.Retriable || ae.Msg != "unknown machine" {
		t.Fatalf("APIError %+v", ae)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of non-retriable)", calls.Load())
	}
}

// The server's body-level retriable flag overrides the status taxonomy in
// both directions.
func TestBodyRetriableFlagWins(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// 503 is retriable by status, but the server says it is not.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"shutting down for good","retriable":false,"status":503}`)
	}))
	defer ts.Close()

	_, err := fastClient(t, ts.URL).Get(context.Background(), "/x")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Retriable {
		t.Fatalf("err %v, want non-retriable APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

func TestMaxAttemptsExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded","retriable":true,"status":429}`)
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Get(context.Background(), "/x")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 429 || ae.Attempts != 3 {
		t.Fatalf("err %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestRetryAfterIsFloor(t *testing.T) {
	var calls atomic.Int64
	var firstRetryGap atomic.Int64
	var last atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 && firstRetryGap.Load() == 0 {
			firstRetryGap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"busy","retriable":true,"status":429}`)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	// Backoff alone would wait ~1ms; Retry-After: 1 must stretch it to >=1s.
	resp, err := fastClient(t, ts.URL).Get(context.Background(), "/x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 2 {
		t.Fatalf("attempts %d", resp.Attempts)
	}
	if gap := time.Duration(firstRetryGap.Load()); gap < 900*time.Millisecond {
		t.Fatalf("retry came after %v, want >= ~1s (Retry-After honored)", gap)
	}
}

func TestContextCancelsBackoffSleep(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"busy","retriable":true,"status":503}`)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fastClient(t, ts.URL).Get(ctx, "/x")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the 30s Retry-After sleep was not interrupted", elapsed)
	}
}

func TestNetworkErrorRetries(t *testing.T) {
	// A server that dies after its first (failing) response: connection
	// refused thereafter — a retriable network error that eventually
	// exhausts attempts.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	c, err := New(Config{BaseURL: url, MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Get(context.Background(), "/x")
	if err == nil {
		t.Fatal("expected network error")
	}
	var ae *APIError
	if errors.As(err, &ae) {
		t.Fatalf("network failure surfaced as APIError: %v", err)
	}
}

func TestUnstructuredErrorBodyFallsBackToStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "<html>proxy says no</html>")
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Get(context.Background(), "/x")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err %v", err)
	}
	if !ae.Retriable || ae.Status != 502 || ae.Msg != "<html>proxy says no</html>" {
		t.Fatalf("APIError %+v", ae)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("BaseURL missing should error")
	}
	c, err := New(Config{BaseURL: "http://x/"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.BaseURL != "http://x" {
		t.Fatalf("trailing slash not trimmed: %q", c.cfg.BaseURL)
	}
	if c.cfg.MaxAttempts != 5 || c.cfg.BaseDelay != 100*time.Millisecond || c.cfg.MaxDelay != 5*time.Second {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("seconds form: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("empty: %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
	httpDate := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(httpDate); d < 80*time.Second || d > 90*time.Second {
		t.Fatalf("http-date form: %v", d)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past http-date: %v", d)
	}
	// RFC 9110 permits the obsolete RFC 850 and ANSI C asctime date forms
	// too; http.ParseTime accepts all three.
	future := time.Now().Add(90 * time.Second).UTC()
	for _, form := range []string{
		future.Format("Monday, 02-Jan-06 15:04:05 GMT"), // RFC 850
		future.Format(time.ANSIC),
	} {
		if d := parseRetryAfter(form); d < 80*time.Second || d > 90*time.Second {
			t.Fatalf("obsolete date form %q: %v", form, d)
		}
	}
	if d := parseRetryAfter("-5"); d != 0 {
		t.Fatalf("negative seconds: %v", d)
	}
	if d := parseRetryAfter("0"); d != 0 {
		t.Fatalf("zero seconds: %v", d)
	}
}

// TestAPIErrorRetryAfter: a proxying caller re-emits
// the server's Retry-After hint, so the decoded error must carry it — in
// both the delta-seconds and HTTP-date forms.
func TestAPIErrorRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		header   string
		min, max time.Duration
	}{
		{"3", 3 * time.Second, 3 * time.Second},
		{time.Now().Add(60 * time.Second).UTC().Format(http.TimeFormat), 50 * time.Second, 60 * time.Second},
		{"junk", 0, 0},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", tc.header)
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"busy","retriable":true}`)
		}))
		c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Get(context.Background(), "/x")
		ts.Close()
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("Retry-After %q: err %v", tc.header, err)
		}
		if ae.RetryAfter < tc.min || ae.RetryAfter > tc.max {
			t.Errorf("Retry-After %q: parsed %v, want in [%v, %v]", tc.header, ae.RetryAfter, tc.min, tc.max)
		}
	}
}
