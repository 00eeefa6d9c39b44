package dist

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"tcphack/internal/campaign"
)

// RetryPolicy bounds the Client's retry loop: every API call retries
// transport errors and 5xx responses with capped exponential backoff
// and deterministic jitter, under a per-attempt timeout. 4xx responses
// are never retried — they are the server saying the request itself is
// wrong. The zero value means defaults; retrying is safe on every
// endpoint because the mutating ones are idempotent (see the package
// documentation's endpoint contract table).
type RetryPolicy struct {
	// MaxAttempts is the total tries per call, first included
	// (default 5).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay (defaults 100 ms, 5 s).
	BaseDelay, MaxDelay time.Duration
	// Timeout bounds each individual attempt (default 15 s).
	Timeout time.Duration
	// Seed salts the jitter stream — give each worker its name so a
	// fleet retrying the same failure spreads out instead of
	// thundering back in lockstep.
	Seed string
	// Sleep overrides the inter-attempt wait (tests; default
	// time.Sleep).
	Sleep func(time.Duration)
	// OnRetry observes each retry before its backoff sleep: the
	// request path, the attempt number just failed (1-based), and its
	// error. Workers hang their retry counters and logging here.
	OnRetry func(path string, attempt int, err error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Timeout <= 0 {
		p.Timeout = 15 * time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// backoff computes the wait before retry number retry (1-based):
// BaseDelay doubling per retry, capped at MaxDelay, then jittered into
// [d/2, d] by a hash of (Seed, path, retry) — deterministic for a
// given policy, decorrelated across workers.
func (p RetryPolicy) backoff(path string, retry int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", p.Seed, path, retry)
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(h.Sum64()%uint64(half)+1)
}

// retryableError wraps an attempt error that is worth retrying
// (transport failure or 5xx).
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

// Client speaks the Server's HTTP/JSON API — the submit/status side
// for CLIs and the lease/heartbeat/stream side for workers. Every call
// runs under Retry's backoff loop.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient overrides http.DefaultClient (chaos tests install a
	// fault-injecting transport here).
	HTTPClient *http.Client
	// Retry bounds the per-call retry loop (zero value = defaults).
	Retry RetryPolicy
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do runs one JSON call under the retry policy; out may be nil.
// found=false reports a 204 (no content, e.g. an empty lease queue).
func (c *Client) do(method, path string, in, out any) (found bool, err error) {
	var data []byte
	if in != nil {
		if data, err = json.Marshal(in); err != nil {
			return false, err
		}
	}
	p := c.Retry.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if attempt > 1 {
			if p.OnRetry != nil {
				p.OnRetry(path, attempt-1, lastErr)
			}
			p.Sleep(p.backoff(path, attempt-1))
		}
		found, err := c.attempt(method, path, data, out)
		if err == nil {
			return found, nil
		}
		if _, retryable := err.(retryableError); !retryable {
			return false, err
		}
		lastErr = err
	}
	// Keep the retryable classification on the give-up error so
	// long-poll loops (WaitDone) can tell an outage from a verdict.
	return false, retryableError{fmt.Errorf("dist: %s %s: giving up after %d attempts: %v",
		method, path, p.MaxAttempts, lastErr)}
}

// attempt is one bounded round trip. Transport errors, 5xx responses,
// and truncated bodies come back as retryableError; anything else is
// final.
func (c *Client) attempt(method, path string, data []byte, out any) (found bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.Retry.withDefaults().Timeout)
	defer cancel()
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return false, err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false, retryableError{fmt.Errorf("dist: %s %s: %v", method, path, err)}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode >= 500:
		return false, retryableError{fmt.Errorf("dist: %s %s: HTTP %d", method, path, resp.StatusCode)}
	case resp.StatusCode != http.StatusOK:
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return false, fmt.Errorf("dist: %s %s: %s", method, path, e.Error)
		}
		return false, fmt.Errorf("dist: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A truncated 200 body is a transport casualty, not a
			// server verdict — retry it.
			return false, retryableError{fmt.Errorf("dist: %s %s: decoding response: %v", method, path, err)}
		}
	}
	return true, nil
}

// submitToken mints the idempotency token a Submit carries: the server
// replays the original job's status for every retry or transport
// duplicate bearing the same token, so at-least-once delivery of a
// submit admits exactly one job.
func submitToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Submit posts a spec (shardSize ≤ 0 uses the server default) and
// returns the new job's status. The call is idempotent end to end: all
// retries carry one token, and the server returns the already-admitted
// job for a token it has seen.
func (c *Client) Submit(spec campaign.WireSpec, shardSize int) (JobStatus, error) {
	var st JobStatus
	req := struct {
		Spec      campaign.WireSpec `json:"spec"`
		ShardSize int               `json:"shard_size"`
		Token     string            `json:"token"`
	}{spec, shardSize, submitToken()}
	_, err := c.do("POST", "/jobs", req, &st)
	return st, err
}

// Jobs lists every job's status.
func (c *Client) Jobs() ([]JobStatus, error) {
	var out []JobStatus
	_, err := c.do("GET", "/jobs", nil, &out)
	return out, err
}

// Status fetches one job's status.
func (c *Client) Status(jobID string) (JobStatus, error) {
	var st JobStatus
	_, err := c.do("GET", "/jobs/"+jobID, nil, &st)
	return st, err
}

// Rows fetches a completed job's merged rows.
func (c *Client) Rows(jobID string) (campaign.Results, error) {
	var rows campaign.Results
	_, err := c.do("GET", "/jobs/"+jobID+"/rows", nil, &rows)
	return rows, err
}

// Metrics fetches the daemon's metrics snapshot.
func (c *Client) Metrics() (Metrics, error) {
	var m Metrics
	_, err := c.do("GET", "/metrics", nil, &m)
	return m, err
}

// Lease asks for a shard; ok=false means no work is pending.
func (c *Client) Lease(worker string) (LeaseGrant, bool, error) {
	var grant LeaseGrant
	found, err := c.do("POST", "/lease", map[string]string{"worker": worker}, &grant)
	return grant, found && err == nil, err
}

// Heartbeat extends a held lease; renewed=false means the lease was
// lost to expiry.
func (c *Client) Heartbeat(worker, jobID string, shardID int) (bool, error) {
	req := struct {
		Worker string `json:"worker"`
		Job    string `json:"job"`
		Shard  int    `json:"shard"`
	}{worker, jobID, shardID}
	var resp struct {
		Renewed bool `json:"renewed"`
	}
	_, err := c.do("POST", "/heartbeat", req, &resp)
	return resp.Renewed, err
}

// StreamPoint reports one finished grid point of a leased shard — the
// worker-side checkpoint and the only way a row reaches the server.
// The server persists the row immediately, so a worker crash after
// this call costs at most the points still unstreamed, and the row
// that completes the shard closes it. duplicate=true means the row was
// already known (another worker streamed it first); the call is
// idempotent.
func (c *Client) StreamPoint(worker, jobID string, shardID int, row campaign.Result) (duplicate bool, err error) {
	req := struct {
		Worker string          `json:"worker"`
		Row    campaign.Result `json:"row"`
	}{worker, row}
	var resp struct {
		Duplicate bool `json:"duplicate"`
	}
	_, err = c.do("POST", fmt.Sprintf("/jobs/%s/shards/%d/points", jobID, shardID), req, &resp)
	return resp.Duplicate, err
}

// WaitDone polls a job until it reports done, returning the final
// status. The context bounds the wait. Transient poll failures — the
// daemon restarting, 5xx blips outlasting even the per-call retry
// budget — are absorbed and polling continues; definitive server
// verdicts (an unknown job, a rejected request) surface immediately.
func (c *Client) WaitDone(ctx context.Context, jobID string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	var last JobStatus
	for {
		st, err := c.Status(jobID)
		switch {
		case err == nil:
			last = st
			if st.State == "done" {
				return st, nil
			}
		default:
			if _, transient := err.(retryableError); !transient {
				return last, err
			}
		}
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-time.After(poll):
		}
	}
}
