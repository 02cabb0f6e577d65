package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cote/internal/service"
)

// client is the chaos soak's retrying caller of POST /v1/estimate, with the
// retry discipline the server's error taxonomy asks for: transient failures
// (shed_overload 429, queue_full / dependency_fault 503, timeout 504, and
// transport errors) are retried under jittered exponential backoff honoring
// the server's Retry-After hint, while permanent failures (4xx taxonomy
// classes like bad_request and parse_error) surface immediately.
type client struct {
	cfg clientConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// clientConfig parameterizes a client. The zero value of every field is
// usable.
type clientConfig struct {
	// BaseURL is the server root.
	BaseURL string
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay (default 10ms); each
	// further retry doubles it, capped at MaxBackoff (default 1s). The
	// sleep is jittered uniformly over [delay/2, delay], so concurrent
	// clients shed by the same overload peak do not re-stampede in phase.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic; zero seeds from 1.
	Seed int64
}

// apiError is a non-2xx reply decoded from the server's error taxonomy.
type apiError struct {
	Status     int
	Code       string // service.Code*
	Message    string
	RetryAfter time.Duration // the server's Retry-After hint, zero when absent
}

func (e *apiError) Error() string {
	return fmt.Sprintf("coted: %s (http %d, code %s)", e.Message, e.Status, e.Code)
}

// Retryable reports whether the failure class is transient: the client may
// see a different outcome by retrying after backoff.
func (e *apiError) Retryable() bool {
	switch e.Code {
	case service.CodeShedOverload, service.CodeQueueFull, service.CodeDependencyFault, service.CodeTimeout:
		return true
	}
	// Unknown codes on retryable statuses (a proxy's bare 503) retry on
	// status alone. Bare 429s do not: coted's only uncoded 429 is an
	// admission reject, which is deterministic.
	return e.Status == http.StatusServiceUnavailable || e.Status == http.StatusGatewayTimeout
}

func newClient(cfg clientConfig) *client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Estimate calls POST /v1/estimate, retrying transient failures up to
// MaxAttempts times.
func (c *client) Estimate(ctx context.Context, req service.EstimateRequest) (*service.EstimateResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp service.EstimateResponse
	var last error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt, last)); err != nil {
				return nil, err
			}
		}
		if last = c.once(ctx, payload, &resp); last == nil {
			return &resp, nil
		}
		var ae *apiError
		if errors.As(last, &ae) && !ae.Retryable() || ctx.Err() != nil {
			break
		}
	}
	return nil, last
}

// once runs a single HTTP attempt.
func (c *client) once(ctx context.Context, payload []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/estimate", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		ae := &apiError{Status: resp.StatusCode, Message: string(data)}
		var eb service.ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Code != "" {
			ae.Code, ae.Message = eb.Code, eb.Error
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			ae.RetryAfter = time.Duration(ra) * time.Second
		}
		return ae
	}
	return json.Unmarshal(data, out)
}

// backoff prices the sleep before attempt (1-based): the doubled-and-capped
// nominal delay, jittered over [delay/2, delay], raised to the server's
// Retry-After hint (itself capped at MaxBackoff) when that is larger.
func (c *client) backoff(attempt int, last error) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	var ae *apiError
	if errors.As(last, &ae) && ae.RetryAfter > d {
		d = min(ae.RetryAfter, c.cfg.MaxBackoff)
	}
	return d
}

// sleep waits d or until ctx expires.
func (c *client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scripted returns a handler that replies with each script entry in turn
// (repeating the last forever) and counts calls.
func scripted(calls *atomic.Int64, script ...func(w http.ResponseWriter)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		script[min(i, len(script)-1)](w)
	})
}

func errorReply(status int, code, msg string, retryAfter string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(service.ErrorBody{Error: msg, Code: code})
	}
}

func scriptedClient(t *testing.T, h http.Handler) *client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return newClient(clientConfig{BaseURL: ts.URL, MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 1})
}

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	c := scriptedClient(t, scripted(&calls,
		errorReply(http.StatusTooManyRequests, service.CodeShedOverload, "overloaded", "1"),
		errorReply(http.StatusServiceUnavailable, service.CodeDependencyFault, "injected", ""),
		func(w http.ResponseWriter) {
			_ = json.NewEncoder(w).Encode(service.EstimateResponse{Catalog: "tpch", Level: "inner2"})
		},
	))
	// The Retry-After of 1s must not override the test's tiny MaxBackoff.
	start := time.Now()
	resp, err := c.Estimate(context.Background(), service.EstimateRequest{Catalog: "tpch", SQL: "SELECT 1"})
	if err != nil {
		t.Fatalf("Estimate after transient failures: %v", err)
	}
	if resp.Catalog != "tpch" {
		t.Fatalf("got catalog %q", resp.Catalog)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retries took %v; Retry-After must be capped at MaxBackoff", elapsed)
	}
}

func TestClientPermanentErrorsAreNotRetried(t *testing.T) {
	for _, tc := range []struct {
		code   string
		status int
	}{
		{service.CodeParseError, http.StatusBadRequest},
		{service.CodeBadRequest, http.StatusBadRequest},
		{service.CodeNotFound, http.StatusNotFound},
		{service.CodeOverBudget, http.StatusTooManyRequests},
	} {
		var calls atomic.Int64
		c := scriptedClient(t, scripted(&calls, errorReply(tc.status, tc.code, "nope", "")))
		_, err := c.Estimate(context.Background(), service.EstimateRequest{Catalog: "x", SQL: "y"})
		ae, ok := err.(*apiError)
		if !ok {
			t.Fatalf("%s: got %T (%v), want *apiError", tc.code, err, err)
		}
		if ae.Code != tc.code || ae.Status != tc.status || ae.Retryable() {
			t.Fatalf("%s: got code=%q status=%d retryable=%v", tc.code, ae.Code, ae.Status, ae.Retryable())
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("%s: server saw %d calls, want 1 (no retry)", tc.code, got)
		}
	}
}

func TestClientExhaustedRetriesReturnLastError(t *testing.T) {
	var calls atomic.Int64
	c := scriptedClient(t, scripted(&calls, errorReply(http.StatusServiceUnavailable, service.CodeQueueFull, "full", "")))
	_, err := c.Estimate(context.Background(), service.EstimateRequest{Catalog: "x", SQL: "y"})
	ae, ok := err.(*apiError)
	if !ok || ae.Code != service.CodeQueueFull {
		t.Fatalf("got %v, want queue_full apiError", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want MaxAttempts=4", got)
	}
}

func TestClientBackoffDeterministicPerSeed(t *testing.T) {
	a := newClient(clientConfig{BaseURL: "http://x", Seed: 7})
	b := newClient(clientConfig{BaseURL: "http://x", Seed: 7})
	for i := 1; i < 4; i++ {
		if da, db := a.backoff(i, nil), b.backoff(i, nil); da != db {
			t.Fatalf("attempt %d: %v != %v with equal seeds", i, da, db)
		}
	}
	// Jitter stays within [delay/2, delay].
	c := newClient(clientConfig{BaseURL: "http://x", BaseBackoff: 8 * time.Millisecond, MaxBackoff: time.Second, Seed: 3})
	for i := 0; i < 100; i++ {
		d := c.backoff(1, nil)
		if d < 4*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("backoff %v outside [4ms, 8ms]", d)
		}
	}
}

func TestClientContextCancelStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	c := scriptedClient(t, scripted(&calls, errorReply(http.StatusServiceUnavailable, service.CodeQueueFull, "full", "")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Estimate(ctx, service.EstimateRequest{Catalog: "x", SQL: "y"})
	if err == nil {
		t.Fatal("want error after cancel")
	}
	if got := calls.Load(); got > 1 {
		t.Fatalf("server saw %d calls after ctx cancel, want <= 1", got)
	}
}
