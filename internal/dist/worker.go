package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"tcphack/internal/campaign"
)

// Worker pulls shards from a daemon and simulates them point by
// point: lease, materialize the spec, simulate each granted grid
// point and stream its row back immediately (the point-level
// checkpoint, and the only delivery: the shard's last row closes it),
// heartbeating while simulating. A worker holds up to
// runtime.GOMAXPROCS(0) leases at once (read when Run starts), one
// simulating goroutine per shard, so one worker per machine uses every
// core; within a shard, points still run and stream one after
// another. It leases only while a slot is free. Cancelling the context
// stops the worker gracefully: it stops leasing, then finishes and
// streams every shard it holds (abandoning mid-shard would only burn
// the lease TTL before a re-queue). Closing Kill stops it the way
// SIGKILL would — every in-flight simulation is abandoned, and
// recovery is entirely the server's job (the streamed points are
// already checkpointed; the leases expire and the remainders are
// re-granted).
type Worker struct {
	// Client targets the daemon. Give Client.Retry.Seed the worker's
	// name so retry jitter decorrelates across a fleet.
	Client Client
	// Name identifies the worker in leases and liveness metrics.
	Name string
	// Poll is the idle wait after the first empty lease attempt; it
	// doubles per consecutive idle attempt up to MaxPoll, with
	// deterministic jitter derived from Name, so an idle fleet backs
	// off the daemon instead of hammering it in lockstep (defaults
	// 200 ms, 5 s).
	Poll, MaxPoll time.Duration
	// Kill, when closed, aborts the worker immediately — the chaos
	// tests' SIGKILL. No drain, no further requests.
	Kill <-chan struct{}
	// OnShard, when set, observes each shard whose granted points were
	// all streamed (logging).
	OnShard func(grant LeaseGrant)
	// OnPoint, when set, observes each simulated point after its
	// stream: the grant, the grid index, whether the server already
	// had the row, and the stream error if any (an error abandons the
	// shard).
	OnPoint func(grant LeaseGrant, index int, duplicate bool, err error)
	// OnAbandon, when set, observes a shard the worker gave up on
	// because a stream still failed after the client's retries; lease
	// expiry re-grants its points that have no row.
	OnAbandon func(grant LeaseGrant, err error)

	// callbacks is held across each OnShard, OnPoint and OnAbandon
	// call and guards nothing else: it runs them one at a time across
	// the shards in flight, so callers need no locking of their own.
	callbacks sync.Mutex
}

// errKilled reports a Kill-channel abort out of runShard.
var errKilled = errors.New("dist: worker killed")

// Run executes the lease loop until the context is cancelled (graceful
// drain: every shard held is finished and streamed first) or Kill is
// closed (immediate abandonment); either way it returns only once every
// shard goroutine has stopped. Transient daemon failures are absorbed
// by the idle backoff, and both stop paths return nil. A shard that
// fails outright (a spec that does not materialize, a simulation
// error) stops leasing; Run then waits for the other shards and
// returns the first such error.
func (w *Worker) Run(ctx context.Context) error {
	killCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if w.Kill != nil {
		stopped := make(chan struct{})
		defer close(stopped)
		go func() {
			select {
			case <-w.Kill:
				cancel()
			case <-stopped:
			}
		}()
	}
	leasing, stopLeasing := context.WithCancel(ctx)
	defer stopLeasing()
	// slots holds one token per shard in flight.
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	idle := 0
	for {
		select {
		case slots <- struct{}{}:
		case <-leasing.Done():
		case <-killCtx.Done():
		}
		if leasing.Err() != nil || killCtx.Err() != nil {
			break
		}
		grant, ok, err := w.Client.Lease(w.Name)
		if err != nil || !ok {
			<-slots
			// A daemon restart or network blip outlasting the client's
			// retry budget is survivable; back off and keep polling.
			idle++
			select {
			case <-leasing.Done():
			case <-killCtx.Done():
			case <-time.After(w.idleDelay(idle)):
			}
			continue
		}
		// The shard runs even if the context was cancelled while the
		// lease was in flight: a drain works every grant it received.
		idle = 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := w.runShard(killCtx, grant)
			<-slots
			if err != nil && !errors.Is(err, errKilled) {
				errOnce.Do(func() {
					firstErr = err
					stopLeasing()
				})
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// idleDelay is the capped exponential idle backoff: Poll doubling per
// consecutive empty poll up to MaxPoll, jittered into [d/2, d] by a
// hash of (worker name, attempt) — deterministic per worker, spread
// across a fleet.
func (w *Worker) idleDelay(attempt int) time.Duration {
	base, cap := w.Poll, w.MaxPoll
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if cap <= 0 {
		cap = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|idle|%d", w.Name, attempt)
	return half + time.Duration(h.Sum64()%uint64(half)+1)
}

// runShard simulates one leased shard point by point, streaming each
// finished row back, heartbeating in the background throughout; it
// runs on its own goroutine, beside the worker's other shards. A
// stream failure that outlasts the retry budget abandons the shard to
// lease expiry rather than killing the worker.
func (w *Worker) runShard(killCtx context.Context, grant LeaseGrant) error {
	spec, err := grant.Spec.Spec()
	if err != nil {
		return fmt.Errorf("dist: worker %s: bad spec for job %s: %v", w.Name, grant.Job, err)
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := time.Duration(grant.TTLMillis) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			select {
			case <-hbStop:
				return
			case <-killCtx.Done():
				return
			case <-time.After(interval):
				// A lost lease is not fatal: streaming is idempotent.
				w.Client.Heartbeat(w.Name, grant.Job, grant.Shard)
			}
		}
	}()
	defer func() {
		close(hbStop)
		<-hbDone
	}()

	for _, idx := range grant.Indexes {
		rows, err := campaign.RunPoints(killCtx, spec, []int{idx})
		if killCtx.Err() != nil {
			return errKilled
		}
		if err != nil {
			return fmt.Errorf("dist: worker %s: job %s shard %d point %d: %v",
				w.Name, grant.Job, grant.Shard, idx, err)
		}
		dup, err := w.Client.StreamPoint(w.Name, grant.Job, grant.Shard, rows[0])
		if w.OnPoint != nil {
			w.callbacks.Lock()
			w.OnPoint(grant, idx, dup, err)
			w.callbacks.Unlock()
		}
		if err != nil {
			// Abandon rather than dying — a worker fleet should
			// outlive a flaky daemon. Whatever has no row yet is
			// re-granted when the lease expires.
			if w.OnAbandon != nil {
				w.callbacks.Lock()
				w.OnAbandon(grant, err)
				w.callbacks.Unlock()
			}
			return nil
		}
	}
	if w.OnShard != nil {
		w.callbacks.Lock()
		w.OnShard(grant)
		w.callbacks.Unlock()
	}
	return nil
}
