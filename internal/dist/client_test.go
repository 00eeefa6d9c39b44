package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry is the test retry policy: real policy shape, no real
// sleeping.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Timeout:     5 * time.Second,
	}
}

// TestRetryBackoffShape: the schedule doubles from BaseDelay, caps at
// MaxDelay, keeps jitter inside [d/2, d], and is deterministic per
// (seed, path) while differing across seeds.
func TestRetryBackoffShape(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Seed: "w1"}.withDefaults()
	prev := time.Duration(0)
	for retry := 1; retry <= 6; retry++ {
		d := 100 * time.Millisecond
		for i := 1; i < retry && d < p.MaxDelay; i++ {
			d *= 2
		}
		if d > p.MaxDelay {
			d = p.MaxDelay
		}
		got := p.backoff("/lease", retry)
		if got < d/2 || got > d {
			t.Errorf("retry %d backoff %v outside [%v, %v]", retry, got, d/2, d)
		}
		if got != p.backoff("/lease", retry) {
			t.Errorf("retry %d backoff not deterministic", retry)
		}
		if retry >= 4 && got > p.MaxDelay {
			t.Errorf("retry %d backoff %v exceeds cap", retry, got)
		}
		_ = prev
		prev = got
	}
	other := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Seed: "w2"}.withDefaults()
	same := 0
	for retry := 1; retry <= 6; retry++ {
		if p.backoff("/lease", retry) == other.backoff("/lease", retry) {
			same++
		}
	}
	if same == 6 {
		t.Error("two seeds produced identical jitter schedules")
	}
}

// TestClientRetries5xxThenSucceeds: transient 5xx responses are
// retried within the policy and the call still succeeds; the retries
// are observable through OnRetry.
func TestClientRetries5xxThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			httpError(w, http.StatusInternalServerError, context.DeadlineExceeded)
			return
		}
		writeJSON(w, []JobStatus{{ID: "j1"}})
	}))
	defer ts.Close()

	var retries []string
	p := fastRetry(5)
	p.OnRetry = func(path string, attempt int, err error) {
		retries = append(retries, path)
		if err == nil {
			t.Error("OnRetry observed a nil error")
		}
	}
	c := Client{BaseURL: ts.URL, Retry: p}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Errorf("jobs = %+v", jobs)
	}
	if calls.Load() != 3 || len(retries) != 2 {
		t.Errorf("calls = %d, retries = %v; want 3 calls, 2 retries", calls.Load(), retries)
	}
}

// TestClientGivesUpAfterBudget: a persistent 5xx exhausts MaxAttempts
// and the give-up error still reads as retryable (WaitDone's transient
// classification depends on it).
func TestClientGivesUpAfterBudget(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := Client{BaseURL: ts.URL, Retry: fastRetry(3)}
	_, err := c.Jobs()
	if err == nil {
		t.Fatal("persistent 503 did not error")
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	if _, ok := err.(retryableError); !ok {
		t.Errorf("give-up error lost its retryable classification: %T %v", err, err)
	}
}

// TestClientDoesNotRetry4xx: a 4xx is the server's verdict on the
// request — retrying it is a bug, and the error carries the server's
// message.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "dist: unknown job \"j42\""})
	}))
	defer ts.Close()

	c := Client{BaseURL: ts.URL, Retry: fastRetry(5)}
	_, err := c.Status("j42")
	if err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("err = %v, want the server's message", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d; a 4xx must not be retried", calls.Load())
	}
	if _, ok := err.(retryableError); ok {
		t.Error("4xx classified as retryable")
	}
}

// TestSubmitIdempotencyToken: retries and duplicates of one submit —
// same token — admit exactly one job; a different token admits a new
// one. This is what makes POST /jobs safe under at-least-once
// delivery.
func TestSubmitIdempotencyToken(t *testing.T) {
	s, err := NewServer(ServerConfig{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(testWire(), 2, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.Submit(testWire(), 2, "tok-1")
	if err != nil {
		t.Fatal(err)
	}
	if replay.ID != first.ID {
		t.Errorf("replayed submit admitted %s, want %s", replay.ID, first.ID)
	}
	if got := len(s.Jobs()); got != 1 {
		t.Errorf("%d jobs after replay, want 1", got)
	}
	fresh, err := s.Submit(testWire(), 2, "tok-2")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == first.ID {
		t.Error("fresh token replayed the old job")
	}
}

// TestSubmitTokenSurvivesRestart: the token→job mapping is persisted
// with the job record, so a submit retried across a daemon restart
// still deduplicates.
func TestSubmitTokenSurvivesRestart(t *testing.T) {
	state := t.TempDir()
	s1, err := NewServer(ServerConfig{StateDir: state, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Submit(testWire(), 2, "tok-restart")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(ServerConfig{StateDir: state, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s2.Submit(testWire(), 2, "tok-restart")
	if err != nil {
		t.Fatal(err)
	}
	if replay.ID != first.ID {
		t.Errorf("post-restart replay admitted %s, want %s", replay.ID, first.ID)
	}
}

// TestWaitDoneContextCancelled: WaitDone on a job that never finishes
// returns the context's error and the last status it saw.
func TestWaitDoneContextCancelled(t *testing.T) {
	s, err := NewServer(ServerConfig{ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startDaemon(t, s)
	st, err := c.Submit(testWire(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	last, err := c.WaitDone(ctx, st.ID, time.Millisecond)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if last.ID != st.ID || last.State != "running" {
		t.Errorf("last status = %+v, want the running job", last)
	}
}

// TestWaitDoneAbsorbsOutages: polls that fail with 5xx — even beyond
// the per-call retry budget — do not abort the wait; WaitDone keeps
// polling and returns the final status once the daemon recovers.
func TestWaitDoneAbsorbsOutages(t *testing.T) {
	s, err := NewServer(ServerConfig{ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testWire(), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	streamShard(t, s, "w", grant)

	// The daemon is "down" for the first few polls.
	inner := s.Handler()
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) <= 4 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := Client{BaseURL: ts.URL, Retry: fastRetry(2)} // budget < outage length
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := c.WaitDone(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitDone did not survive the outage: %v", err)
	}
	if final.State != "done" {
		t.Errorf("final = %+v, want done", final)
	}
}

// TestWaitDoneSurfacesDefinitiveErrors: an unknown job is a verdict,
// not an outage — WaitDone must return it immediately instead of
// polling until the context dies.
func TestWaitDoneSurfacesDefinitiveErrors(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startDaemon(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.WaitDone(ctx, "j404", time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("err = %v, want unknown job", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("definitive error took the whole context to surface")
	}
}
