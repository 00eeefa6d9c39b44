package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setGOMAXPROCS sets the worker's slot count for one test and restores
// the previous value when it ends. No dist test runs in parallel, so
// the process-wide setting is the test's own.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// slotDaemon serves a Server over loopback HTTP and watches one job:
// after every /lease it samples the job's shards in flight, and it can
// hold the first /points request in a hook.
type slotDaemon struct {
	t   *testing.T
	s   *Server
	job string
	// onFirstPoints, when set, runs before the first /points request
	// is served; later /points requests wait until it returns.
	onFirstPoints func()
	firstPoints   sync.Once

	mu          sync.Mutex
	maxInflight int
	// twoInflight is closed by the first /lease after which two of the
	// job's shards are in flight.
	twoInflight chan struct{}
	twoOnce     sync.Once
}

// startSlotDaemon submits the test grid to s in shards of shardSize
// and serves s through a slotDaemon.
func startSlotDaemon(t *testing.T, s *Server, shardSize int) (*slotDaemon, Client) {
	t.Helper()
	st, err := s.Submit(testWire(), shardSize, "")
	if err != nil {
		t.Fatal(err)
	}
	d := &slotDaemon{t: t, s: s, job: st.ID, twoInflight: make(chan struct{})}
	inner := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/points") {
			d.firstPoints.Do(func() {
				if d.onFirstPoints != nil {
					d.onFirstPoints()
				}
			})
		}
		inner.ServeHTTP(w, r)
		if r.URL.Path != "/lease" {
			return
		}
		st, err := s.Status(d.job)
		if err != nil {
			t.Error(err)
			return
		}
		d.mu.Lock()
		d.maxInflight = max(d.maxInflight, st.ShardsInflight)
		d.mu.Unlock()
		if st.ShardsInflight >= 2 {
			d.twoOnce.Do(func() { close(d.twoInflight) })
		}
	}))
	t.Cleanup(ts.Close)
	return d, Client{BaseURL: ts.URL}
}

// waitTwoInflight blocks until two of the job's shards are in flight,
// failing the test after 10 s.
func (d *slotDaemon) waitTwoInflight() {
	select {
	case <-d.twoInflight:
	case <-time.After(10 * time.Second):
		d.t.Error("two shards never in flight at once")
	}
}

// finish checks that the job is done with rows byte-identical to a
// serial run, and returns its status.
func (d *slotDaemon) finish(c Client) JobStatus {
	d.t.Helper()
	st, err := d.s.Status(d.job)
	if err != nil {
		d.t.Fatal(err)
	}
	if st.State != "done" {
		d.t.Fatalf("job %+v, want done", st)
	}
	rows, err := c.Rows(d.job)
	if err != nil {
		d.t.Fatal(err)
	}
	if got, want := rowsJSON(d.t, rows), rowsJSON(d.t, serialRows(d.t, testWire())); got != want {
		d.t.Errorf("rows not byte-identical to serial:\n got:  %s\n want: %s", got, want)
	}
	return st
}

// TestWorkerHoldsTwoShards: at GOMAXPROCS 2 a worker on four one-point
// shards leases a second shard while its first point's stream is
// still held, so two shards are in flight at once.
func TestWorkerHoldsTwoShards(t *testing.T) {
	setGOMAXPROCS(t, 2)
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, c := startSlotDaemon(t, s, 1)
	d.onFirstPoints = func() { d.waitTwoInflight() }
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- (&Worker{Client: c, Name: "w", Poll: 5 * time.Millisecond}).Run(ctx) }()
	if _, err := c.WaitDone(ctx, d.job, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	d.finish(c)
}

// TestWorkerSlotsBoundedByGOMAXPROCS: a worker never holds more shards
// than GOMAXPROCS (one at GOMAXPROCS 1), and its callbacks never run
// at the same time.
func TestWorkerSlotsBoundedByGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			setGOMAXPROCS(t, procs)
			s, err := NewServer(ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			d, c := startSlotDaemon(t, s, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var inCallback atomic.Int32
			points, shards := 0, 0 // unguarded: the race detector sees any overlap
			enter := func() {
				if n := inCallback.Add(1); n != 1 {
					t.Errorf("%d callbacks running at once, want 1", n)
				}
				time.Sleep(time.Millisecond)
			}
			w := &Worker{
				Client: c, Name: "w", Poll: 5 * time.Millisecond,
				OnPoint: func(_ LeaseGrant, idx int, dup bool, err error) {
					enter()
					defer inCallback.Add(-1)
					if err != nil || dup {
						t.Errorf("point %d: dup=%v err=%v", idx, dup, err)
					}
					points++
				},
				OnShard: func(LeaseGrant) {
					enter()
					defer inCallback.Add(-1)
					shards++
				},
			}
			done := make(chan error, 1)
			go func() { done <- w.Run(ctx) }()
			if _, err := c.WaitDone(ctx, d.job, 5*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			d.finish(c)
			if points != 4 || shards != 4 {
				t.Errorf("%d OnPoint and %d OnShard calls, want 4 and 4", points, shards)
			}
			d.mu.Lock()
			defer d.mu.Unlock()
			if d.maxInflight > procs || (procs == 1 && d.maxInflight != 1) {
				t.Errorf("at most %d shards in flight at GOMAXPROCS %d", d.maxInflight, procs)
			}
		})
	}
}

// TestWorkerDrainFinishesEveryShard: a worker cancelled with two
// two-point shards in flight leases nothing more, but finishes and
// streams both, returns nil, and leaves the job done.
func TestWorkerDrainFinishesEveryShard(t *testing.T) {
	setGOMAXPROCS(t, 2)
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, c := startSlotDaemon(t, s, 2)
	// Hold the first shard's stream until the second shard is leased:
	// otherwise the first can finish before the second is granted.
	d.onFirstPoints = func() { d.waitTwoInflight() }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- (&Worker{Client: c, Name: "w", Poll: 5 * time.Millisecond}).Run(ctx) }()
	d.waitTwoInflight()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("drained worker did not return")
	}
	if st := d.finish(c); st.PointsStreamed != 4 || st.Requeues != 0 {
		t.Errorf("status %+v, want 4 points streamed and no requeue", st)
	}
}

// TestWorkerKillStopsEveryShard: a worker killed with two two-point
// shards in flight returns once both have stopped; after the leases
// expire a rescuer finishes the job without re-simulating a streamed
// point, and the rows equal a serial run's.
func TestWorkerKillStopsEveryShard(t *testing.T) {
	setGOMAXPROCS(t, 2)
	clock := newFakeClock()
	s, err := NewServer(ServerConfig{LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	d, c := startSlotDaemon(t, s, 2)
	kill := make(chan struct{})
	d.onFirstPoints = func() {
		d.waitTwoInflight()
		close(kill)
	}
	done := make(chan error, 1)
	go func() {
		done <- (&Worker{Client: c, Name: "victim", Poll: 5 * time.Millisecond, Kill: kill}).Run(context.Background())
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("killed worker did not return")
	}
	if st, _ := s.Status(d.job); st.State == "done" {
		t.Fatalf("job %+v done before the rescue: nothing was in flight at the kill", st)
	}

	clock.advance(2 * time.Minute)
	runWorkers(t, c, d.job, 1)
	st := d.finish(c)
	if st.Requeues < 1 || st.PointsStreamed != 4 || st.PointsResimulated != 0 {
		t.Errorf("status %+v, want ≥ 1 requeue, 4 points streamed and none re-simulated", st)
	}
}
