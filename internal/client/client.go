// Package client is the Go client for the dssmemd measurement daemon. It
// wraps net/http with the retry discipline the service's failure model calls
// for: exponential backoff with full jitter, the server's Retry-After hint
// honored as a floor, and retries only for statuses the server marks
// retriable (shed load, degraded dependencies, watchdog kills) — never for
// client errors, whose outcome a retry cannot change.
//
// The daemon's API is idempotent (every measurement is a pure function of
// its query parameters, keyed by content digest server-side), so retrying a
// request that may or may not have executed is always safe.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssmem/internal/telemetry"
)

// Config tunes a Client. The zero value of every field has a usable default.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8077". Required.
	BaseURL string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts bounds tries per request, first attempt included.
	// 0 means 5; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the cap of the first backoff window (full jitter draws
	// uniformly from [0, cap]). 0 means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff window growth. 0 means 5s.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for tests. 0 seeds from the
	// default source behavior (still deterministic per seed value: 0 is a
	// valid seed).
	Seed int64
	// Log, when non-nil, receives one warn line per retry (request ID,
	// attempt, cause) — the client half of making retry storms visible.
	Log *slog.Logger
}

// Client issues GET requests against a dssmemd daemon with retries.
// Safe for concurrent use.
type Client struct {
	cfg Config

	requests atomic.Uint64
	attempts atomic.Uint64
	retries  atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand
}

// Stats is a snapshot of the client's attempt accounting: Retries much above
// zero relative to Requests means the daemon is shedding or failing and this
// client is part of the storm.
type Stats struct {
	Requests uint64 // Get calls issued
	Attempts uint64 // HTTP attempts sent (>= Requests)
	Retries  uint64 // attempts beyond the first, across all requests
}

// Stats returns the attempt counters accumulated so far.
func (c *Client) Stats() Stats {
	return Stats{
		Requests: c.requests.Load(),
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
	}
}

// Response is a successful (HTTP 200) daemon reply.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
	// RequestID is the server-confirmed X-Request-ID — the join key into the
	// daemon's logs, /debug/requests and trace files.
	RequestID string
	Attempts  int // total tries spent, >= 1
}

// APIError is a non-200 daemon reply after retries are exhausted (or a
// non-retriable reply, returned immediately).
type APIError struct {
	Status    int
	Msg       string // server's structured "error" field, or raw body
	RequestID string // server's X-Request-ID echo, if any
	Retriable bool
	Attempts  int
	// RetryAfter is the server's parsed Retry-After hint (zero if absent),
	// kept so a proxying caller can re-emit the hint instead of inventing its
	// own.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("dssmem: server returned %d after %d attempt(s) (req %s): %s", e.Status, e.Attempts, e.RequestID, e.Msg)
	}
	return fmt.Sprintf("dssmem: server returned %d after %d attempt(s): %s", e.Status, e.Attempts, e.Msg)
}

// New builds a Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// retriableStatus mirrors the server's taxonomy: overload shedding (429),
// and transient upstream/internal conditions (502, 503, 504). Anything else
// is either success or an error a retry cannot fix.
func retriableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Get issues GET path (e.g. "/v1/measure?machine=vclass&query=Q6&procs=4")
// and retries retriable failures until success, a non-retriable failure,
// MaxAttempts, or ctx cancellation — whichever comes first.
func (c *Client) Get(ctx context.Context, path string) (*Response, error) {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	url := c.cfg.BaseURL + path
	// One logical request keeps one ID across all its attempts, so the
	// daemon's logs show the retries of a request as one thread. When ctx
	// already carries a tracked request (a proxy forwarding an API call), its
	// ID is reused so one inbound X-Request-ID stitches every downstream hop
	// into a single trace.
	id := telemetry.NewID()
	if q := telemetry.FromContext(ctx); q != nil && telemetry.CleanID(q.ID) != "" {
		id = q.ID
	}
	c.requests.Add(1)

	var lastErr error
	for attempt := 1; ; attempt++ {
		c.attempts.Add(1)
		if attempt > 1 {
			c.retries.Add(1)
		}
		resp, err := c.once(ctx, url, id, attempt)
		if err == nil && resp.StatusCode == http.StatusOK {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				rid := resp.Header.Get("X-Request-ID")
				if rid == "" {
					rid = id
				}
				return &Response{Status: resp.StatusCode, Header: resp.Header, Body: body, RequestID: rid, Attempts: attempt}, nil
			}
			// A truncated 200 body is a transport failure: retry.
			err = fmt.Errorf("client: reading response body: %w", rerr)
		}

		var retryAfter time.Duration
		if err != nil {
			// Network-level failure. Retrying is safe because the API is
			// idempotent — except when our own context ended, where retrying
			// only burns time we no longer have.
			if ctx.Err() != nil {
				return nil, fmt.Errorf("client: %w", context.Cause(ctx))
			}
			lastErr = err
		} else {
			apiErr := decodeError(resp, attempt)
			resp.Body.Close()
			if !apiErr.Retriable {
				return nil, apiErr
			}
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			lastErr = apiErr
		}

		if attempt >= c.cfg.MaxAttempts {
			return nil, lastErr
		}
		if c.cfg.Log != nil {
			c.cfg.Log.Warn("retrying", "req", id, "attempt", attempt, "path", path, "cause", lastErr.Error())
		}
		if err := c.sleep(ctx, attempt, retryAfter); err != nil {
			return nil, err
		}
	}
}

func (c *Client) once(ctx context.Context, url, id string, attempt int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", id)
	req.Header.Set("X-Request-Attempt", strconv.Itoa(attempt))
	return c.cfg.HTTP.Do(req)
}

// decodeError extracts the server's structured error body
// {"error":..., "retriable":...}; if the body is not that shape (a proxy's
// HTML, a truncated write), it falls back to the status-code taxonomy.
func decodeError(resp *http.Response, attempts int) *APIError {
	ae := &APIError{
		Status:     resp.StatusCode,
		RequestID:  resp.Header.Get("X-Request-ID"),
		Retriable:  retriableStatus(resp.StatusCode),
		Attempts:   attempts,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var eb struct {
		Error     string `json:"error"`
		Retriable *bool  `json:"retriable"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		ae.Msg = eb.Error
		if eb.Retriable != nil {
			// The server knows its own failure better than the status map.
			ae.Retriable = *eb.Retriable
		}
		return ae
	}
	ae.Msg = strings.TrimSpace(string(body))
	if ae.Msg == "" {
		ae.Msg = http.StatusText(resp.StatusCode)
	}
	return ae
}

// sleep waits for the backoff window before the next attempt: full jitter
// over an exponentially growing cap, with the server's Retry-After as a
// floor (the server's estimate of when capacity frees is better than our
// blind schedule, but jitter still spreads the retrying herd).
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	cap := c.cfg.BaseDelay << (attempt - 1)
	if cap > c.cfg.MaxDelay || cap <= 0 { // <=0: shift overflow
		cap = c.cfg.MaxDelay
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(cap) + 1))
	c.mu.Unlock()
	if d < retryAfter {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: %w", context.Cause(ctx))
	}
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// MeasureOpt carries the optional knobs of a /v1/measure request. The zero
// value is a plain warm, exact measurement.
type MeasureOpt struct {
	// Trial disambiguates repeated runs of one configuration (the paper
	// averaged four).
	Trial int
	// Cold measures trial 1 of the paper's protocol: cold buffer pool, every
	// first touch paying a simulated disk read.
	Cold bool
	// SampleQuanta > 1 requests SMARTS interval sampling at that period; the
	// server returns an estimated measurement cached under its own digest.
	SampleQuanta int
}

// MeasurePath renders the /v1/measure request path for a configuration —
// one definition of the parameter names shared by every caller.
func MeasurePath(machineName, query string, procs int, o MeasureOpt) string {
	v := url.Values{}
	v.Set("machine", machineName)
	v.Set("query", query)
	v.Set("procs", strconv.Itoa(procs))
	if o.Trial != 0 {
		v.Set("trial", strconv.Itoa(o.Trial))
	}
	if o.Cold {
		v.Set("cold", "1")
	}
	if o.SampleQuanta > 1 {
		v.Set("sample_quanta", strconv.Itoa(o.SampleQuanta))
	}
	return "/v1/measure?" + v.Encode()
}

// Measure requests one measurement with the client's retry discipline.
func (c *Client) Measure(ctx context.Context, machineName, query string, procs int, o MeasureOpt) (*Response, error) {
	return c.Get(ctx, MeasurePath(machineName, query, procs, o))
}
