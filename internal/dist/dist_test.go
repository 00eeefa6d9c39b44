package dist

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/results"
	"tcphack/internal/sim"
)

// testWire is the standing test grid: the sora-stock registry scenario
// swept over 2 modes × 2 seeds = 4 points at short windows.
func testWire() campaign.WireSpec {
	return campaign.WireSpec{
		Name:     "dist-test",
		Scenario: "sora-stock",
		Axes: campaign.WireAxes{
			Modes: []string{"off", "more-data"},
			Seeds: []int64{1, 2},
		},
		Warmup:  100 * sim.Millisecond,
		Measure: 100 * sim.Millisecond,
	}
}

// serialRows runs the wire spec the ordinary way — the golden output
// every distributed path must reproduce exactly.
func serialRows(t *testing.T, w campaign.WireSpec) campaign.Results {
	t.Helper()
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Run(spec)
}

// rowsJSON renders rows through the campaign emitter for byte-level
// comparison.
func rowsJSON(t *testing.T, rs campaign.Results) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fakeClock is an injectable Now for deterministic lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2014, 8, 20, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestPlanFingerprintsAndShards(t *testing.T) {
	w := testWire()
	plan, err := NewPlan(w, nil, results.CodeVersion, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 4 || plan.Cached != 0 {
		t.Fatalf("%d points, %d cached; want 4, 0", len(plan.Points), plan.Cached)
	}
	if len(plan.Shards) != 2 || len(plan.Shards[0]) != 3 || len(plan.Shards[1]) != 1 {
		t.Fatalf("shards = %v, want [3 1] chunking", plan.Shards)
	}
	seen := map[string]bool{}
	for _, pp := range plan.Points {
		if len(pp.Fingerprint) != 16 {
			t.Errorf("point %d fingerprint %q", pp.Index, pp.Fingerprint)
		}
		if seen[pp.Fingerprint] {
			t.Errorf("point %d shares a fingerprint with an earlier point", pp.Index)
		}
		seen[pp.Fingerprint] = true
	}
	if _, err := NewPlan(campaign.WireSpec{Scenario: "nope"}, nil, "s", 0); err == nil {
		t.Error("unknown scenario planned")
	}
}

// TestPlanMemoization: rows persisted under their fingerprints must
// come back as cache hits with the job-local identity rewritten, and a
// fully cached plan schedules nothing.
func TestPlanMemoization(t *testing.T) {
	w := testWire()
	golden := serialRows(t, w)
	store := NewMemStore()
	plan, err := NewPlan(w, store, results.CodeVersion, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range plan.Points {
		if err := store.Put(pp.Fingerprint, golden[pp.Index]); err != nil {
			t.Fatal(err)
		}
	}

	// Same sweep under another label: full hit, identity rewritten.
	renamed := w
	renamed.Name = "other-label"
	plan2, err := NewPlan(renamed, store, results.CodeVersion, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Cached != 4 || len(plan2.Shards) != 0 {
		t.Fatalf("cached=%d shards=%d, want 4, 0", plan2.Cached, len(plan2.Shards))
	}
	for _, pp := range plan2.Points {
		if pp.Result.Campaign != "other-label" {
			t.Errorf("point %d kept label %q", pp.Index, pp.Result.Campaign)
		}
		if pp.Result.AggregateMbps != golden[pp.Index].AggregateMbps {
			t.Errorf("point %d metrics changed through the store", pp.Index)
		}
	}

	// A different code version must miss everything.
	plan3, err := NewPlan(w, store, "hack-sim-v999", 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Cached != 0 {
		t.Errorf("stale-salt plan served %d cached points", plan3.Cached)
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r, err := store.Get("deadbeefdeadbeef"); err != nil || r != nil {
		t.Fatalf("empty store Get = %v, %v", r, err)
	}
	row := serialRows(t, testWire())[0]
	if err := store.Put("deadbeefdeadbeef", row); err != nil {
		t.Fatal(err)
	}
	back, err := store.Get("deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || back.AggregateMbps != row.AggregateMbps || back.Campaign != row.Campaign {
		t.Errorf("round trip lost data: %+v", back)
	}
	if _, err := store.Get("../escape"); err == nil {
		t.Error("path traversal accepted")
	}
}

// grantRows simulates a grant's points the way a worker would.
func grantRows(t *testing.T, grant LeaseGrant) campaign.Results {
	t.Helper()
	spec, err := grant.Spec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := campaign.RunPoints(context.Background(), spec, grant.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// streamShard simulates one granted shard and streams each row, as a
// worker does.
func streamShard(t *testing.T, s *Server, worker string, grant LeaseGrant) {
	t.Helper()
	for _, r := range grantRows(t, grant) {
		if _, err := s.streamPoint(worker, grant.Job, grant.Shard, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeaseExpiryRequeuedExactlyOnce: a worker that dies mid-shard
// loses its lease after the TTL; the shard returns to the queue exactly
// once and the next lease hands it to another worker.
func TestLeaseExpiryRequeuedExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	s, err := NewServer(ServerConfig{
		LeaseTTL:  time.Minute,
		ShardSize: 4,
		Now:       clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testWire(), 4, ""); err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("doomed")
	if !ok {
		t.Fatal("no lease granted")
	}
	if _, ok := s.lease("other"); ok {
		t.Fatal("single shard leased twice")
	}

	// Heartbeats keep the lease alive across TTL boundaries.
	clock.advance(45 * time.Second)
	if renewed, err := s.heartbeat("doomed", grant.Job, grant.Shard); err != nil || !renewed {
		t.Fatalf("mid-lease heartbeat: renewed=%v err=%v", renewed, err)
	}
	clock.advance(45 * time.Second)
	if st, _ := s.Status(grant.Job); st.Requeues != 0 || st.ShardsInflight != 1 {
		t.Fatalf("heartbeated lease expired: %+v", st)
	}

	// The worker dies: no more heartbeats, the TTL runs out.
	clock.advance(2 * time.Minute)
	st, _ := s.Status(grant.Job)
	if st.Requeues != 1 || st.ShardsPending != 1 || st.ShardsInflight != 0 {
		t.Fatalf("expiry not a single requeue: %+v", st)
	}
	// Repeated observation must not count additional requeues.
	if st, _ = s.Status(grant.Job); st.Requeues != 1 {
		t.Fatalf("requeue double-counted: %+v", st)
	}

	// The dead worker's lease is gone.
	if renewed, _ := s.heartbeat("doomed", grant.Job, grant.Shard); renewed {
		t.Error("expired lease renewed")
	}
	regrant, ok := s.lease("successor")
	if !ok || regrant.Job != grant.Job || regrant.Shard != grant.Shard {
		t.Fatalf("re-lease = %+v ok=%v, want the same shard", regrant, ok)
	}
	if st, _ = s.Status(grant.Job); st.Requeues != 1 || st.ShardsInflight != 1 {
		t.Fatalf("after re-lease: %+v", st)
	}

	streamShard(t, s, "successor", regrant)
	st, _ = s.Status(grant.Job)
	if st.State != "done" || st.Requeues != 1 {
		t.Fatalf("after completion: %+v", st)
	}
}

// TestCompleteIdempotentDuplicate: a worker that lost its lease and
// finished anyway streams duplicates; the first rows stand and the
// duplicates are acknowledged as such.
func TestCompleteIdempotentDuplicate(t *testing.T) {
	clock := newFakeClock()
	s, err := NewServer(ServerConfig{LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testWire(), 4, ""); err != nil {
		t.Fatal(err)
	}
	grant, _ := s.lease("slow")
	rows := grantRows(t, grant)

	// The lease expires and the shard is redone by another worker.
	clock.advance(2 * time.Minute)
	regrant, ok := s.lease("fast")
	if !ok {
		t.Fatal("expired shard not re-leased")
	}
	for _, r := range rows {
		if dup, err := s.streamPoint("fast", regrant.Job, regrant.Shard, r); err != nil || dup {
			t.Fatalf("first stream of point %d: dup=%v err=%v", r.Index, dup, err)
		}
	}
	// The slow worker's late rows are duplicates, not errors.
	for _, r := range rows {
		if dup, err := s.streamPoint("slow", grant.Job, grant.Shard, r); err != nil || !dup {
			t.Fatalf("late stream of point %d: dup=%v err=%v", r.Index, dup, err)
		}
	}

	st, _ := s.Status(grant.Job)
	if st.State != "done" || st.PointsStreamed != 4 || st.PointsResimulated != 4 {
		t.Errorf("status = %+v, want done with 4 streamed and 4 resimulated", st)
	}
	got, err := s.Rows(grant.Job, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serialRows(t, testWire())) {
		t.Error("rows after duplicate streams differ from serial")
	}
}

// TestCompleteValidation: streamed rows with a foreign index or for an
// unknown job are rejected, and land nothing.
func TestCompleteValidation(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testWire(), 2, ""); err != nil {
		t.Fatal(err)
	}
	grant, _ := s.lease("w")
	rows := grantRows(t, grant)
	for _, idx := range []int{3, -1, 4} { // the other shard's, and off the grid
		foreign := rows[0]
		foreign.Index = idx
		if _, err := s.streamPoint("w", grant.Job, grant.Shard, foreign); err == nil ||
			!strings.Contains(err.Error(), "not in shard") {
			t.Errorf("foreign index %d accepted: %v", idx, err)
		}
	}
	if _, err := s.streamPoint("w", "j99", 0, rows[0]); err == nil {
		t.Error("unknown job accepted")
	}
	if st, _ := s.Status(grant.Job); st.DoneRows != 0 || st.PointsStreamed != 0 {
		t.Errorf("rejected rows landed: %+v", st)
	}
}

// TestLastStreamedRowClosesShard: streaming every row of a leased
// shard, with no other call, closes it — the stream is the only row
// path, so nothing else would.
func TestLastStreamedRowClosesShard(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testWire(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("w")
	if !ok || len(grant.Indexes) != 2 {
		t.Fatalf("grant = %+v ok=%v, want a 2-point shard", grant, ok)
	}
	rows := grantRows(t, grant)
	if _, err := s.streamPoint("w", grant.Job, grant.Shard, rows[0]); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Status(st.ID); got.ShardsInflight != 1 || got.ShardsDone != 0 {
		t.Fatalf("after the first row: %+v, want the shard still leased", got)
	}
	if _, err := s.streamPoint("w", grant.Job, grant.Shard, rows[1]); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Status(st.ID)
	if got.ShardsDone != 1 || got.ShardsInflight != 0 || got.ShardsPending != 1 || got.DoneRows != 2 {
		t.Errorf("after the last row: %+v, want 1 shard done, 1 pending and 2 rows", got)
	}
	if renewed, _ := s.heartbeat("w", grant.Job, grant.Shard); renewed {
		t.Error("a closed shard's lease renewed")
	}
}

// TestRowsStates: partial rows while running, merged rows when done,
// and the still-running error.
func TestRowsStates(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testWire(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rows(st.ID, false); err == nil {
		t.Error("rows of a running job served without partial")
	}
	if partial, err := s.Rows(st.ID, true); err != nil || len(partial) != 0 {
		t.Errorf("empty partial = %d rows, %v", len(partial), err)
	}

	grant, _ := s.lease("w")
	streamShard(t, s, "w", grant)
	partial, err := s.Rows(st.ID, true)
	if err != nil || len(partial) != 2 {
		t.Fatalf("partial after one shard = %d rows, %v", len(partial), err)
	}

	grant2, _ := s.lease("w")
	streamShard(t, s, "w", grant2)
	got, err := s.Rows(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if rowsJSON(t, got) != rowsJSON(t, serialRows(t, testWire())) {
		t.Error("merged rows not byte-identical to serial")
	}
}

// gatedStore is a MemStore whose Get, once armed, announces itself on
// entered and then blocks until open is called: a submit stopped in
// the middle of planning its grid.
type gatedStore struct {
	*MemStore
	armed atomic.Bool
	// entered has room for one announcement per submit a test holds;
	// announcements beyond that are dropped.
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// newGatedStore returns an unarmed gatedStore that announces up to
// submits blocked Gets and opens when the test ends.
func newGatedStore(t *testing.T, submits int) *gatedStore {
	g := &gatedStore{MemStore: NewMemStore(), entered: make(chan struct{}, submits), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gatedStore) Get(fp string) (*campaign.Result, error) {
	if g.armed.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	return g.MemStore.Get(fp)
}

// open releases every Get blocked now or later.
func (g *gatedStore) open() { g.once.Do(func() { close(g.release) }) }

// waitEntered waits for n Gets to block, failing the test after 10 s.
func (g *gatedStore) waitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d submits reached planning", i, n)
		}
	}
}

// TestSubmitPlansOutsideLock: while a submit is stuck planning its grid
// against a slow store, lease, Status and streamPoint on an earlier job
// still answer.
func TestSubmitPlansOutsideLock(t *testing.T) {
	store := newGatedStore(t, 1)
	s, err := NewServer(ServerConfig{Store: store, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(testWire(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	row := grantRows(t, grant)[0]

	store.armed.Store(true)
	later := testWire()
	later.Axes.Seeds = []int64{3, 4}
	submitted := make(chan error, 1)
	go func() {
		_, err := s.Submit(later, 2, "")
		submitted <- err
	}()
	store.waitEntered(t, 1)

	var wg sync.WaitGroup
	within := func(name string, call func() error) {
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			done <- call()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s still blocked 1 s into another submit's planning", name)
		}
	}
	within("lease", func() error {
		_, _ = s.lease("w2")
		return nil
	})
	within("Status", func() error {
		_, err := s.Status(first.ID)
		return err
	})
	within("streamPoint", func() error {
		_, err := s.streamPoint("w", grant.Job, grant.Shard, row)
		return err
	})
	store.open()
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if jobs := s.Jobs(); len(jobs) != 2 {
		t.Errorf("%d jobs, want 2", len(jobs))
	}
}

// TestConcurrentSubmitsOneToken: two submits carrying one token, both
// planning at once, admit a single job and both report it.
func TestConcurrentSubmitsOneToken(t *testing.T) {
	store := newGatedStore(t, 2)
	store.armed.Store(true)
	s, err := NewServer(ServerConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := s.Submit(testWire(), 0, "tok")
			if err != nil {
				t.Error(err)
			}
			ids <- st.ID
		}()
	}
	store.waitEntered(t, 2)
	store.open()
	if a, b := <-ids, <-ids; a != b || a == "" {
		t.Errorf("submits admitted %q and %q, want one job", a, b)
	}
	if jobs := s.Jobs(); len(jobs) != 1 {
		t.Errorf("%d jobs admitted, want 1", len(jobs))
	}
}

// TestSubmitFullyCachedBornDone: re-submitting a completed sweep plans
// every point out of the store — zero shards, state done at admission.
func TestSubmitFullyCachedBornDone(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(testWire(), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	grant, _ := s.lease("w")
	streamShard(t, s, "w", grant)

	again, err := s.Submit(testWire(), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || again.CachedPoints != 4 || again.ShardsTotal != 0 {
		t.Fatalf("resubmission not born done: %+v", again)
	}
	a, err := s.Rows(first.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Rows(again.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if rowsJSON(t, a) != rowsJSON(t, b) {
		t.Error("cached job's rows differ from the original's")
	}
}

// TestMetricsSnapshot: worker liveness tracks contact recency against
// the lease TTL.
func TestMetricsSnapshot(t *testing.T) {
	clock := newFakeClock()
	s, err := NewServer(ServerConfig{LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testWire(), 4, ""); err != nil {
		t.Fatal(err)
	}
	s.lease("w1")
	m := s.MetricsSnapshot()
	if len(m.Jobs) != 1 || !m.Workers["w1"].Live {
		t.Fatalf("fresh worker not live: %+v", m)
	}
	clock.advance(3 * time.Minute)
	if m = s.MetricsSnapshot(); m.Workers["w1"].Live {
		t.Errorf("silent worker still live: %+v", m.Workers)
	}
	if m.Jobs[0].Requeues != 1 {
		t.Errorf("metrics did not observe the expiry: %+v", m.Jobs[0])
	}
}

// slowPutStore is a MemStore whose next held Puts, once set, announce
// themselves on entered and block until open is called: a row landing
// on a slow disk.
type slowPutStore struct {
	*MemStore
	held atomic.Int32 // Puts still to hold
	// entered has room for the most Puts a test holds, two, so a held
	// Put never blocks announcing itself.
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newSlowPutStore(t *testing.T) *slowPutStore {
	p := &slowPutStore{MemStore: NewMemStore(), entered: make(chan struct{}, 2), release: make(chan struct{})}
	t.Cleanup(p.open)
	return p
}

func (p *slowPutStore) Put(fp string, r campaign.Result) error {
	if p.held.Add(-1) >= 0 {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.MemStore.Put(fp, r)
}

// open releases every Put held now or later.
func (p *slowPutStore) open() { p.once.Do(func() { close(p.release) }) }

// waitEntered waits for n held Puts, failing the test after 10 s.
func (p *slowPutStore) waitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-p.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d streams reached the store", i, n)
		}
	}
}

// TestStreamPersistsOutsideLock: while one streamed row is stuck in a
// slow Store.Put, lease, heartbeat, Status and a stream for another job
// still answer, and the stuck row lands once the store lets go.
func TestStreamPersistsOutsideLock(t *testing.T) {
	store := newSlowPutStore(t)
	s, err := NewServer(ServerConfig{Store: store, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(testWire(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	other := testWire()
	other.Axes.Seeds = []int64{3, 4}
	if _, err := s.Submit(other, 2, ""); err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	var otherGrant LeaseGrant
	for {
		g, ok := s.lease("w2")
		if !ok {
			t.Fatal("no lease on the second job")
		}
		if g.Job != grant.Job {
			otherGrant = g
			break
		}
	}
	row, otherRow := grantRows(t, grant)[0], grantRows(t, otherGrant)[0]

	store.held.Store(1)
	streamed := make(chan error, 1)
	go func() {
		_, err := s.streamPoint("w", grant.Job, grant.Shard, row)
		streamed <- err
	}()
	store.waitEntered(t, 1)

	var wg sync.WaitGroup
	within := func(name string, call func() error) {
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			done <- call()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(time.Second):
			t.Errorf("%s still blocked 1 s into another row's Store.Put", name)
		}
	}
	within("lease", func() error {
		_, _ = s.lease("w3")
		return nil
	})
	within("heartbeat", func() error {
		_, err := s.heartbeat("w", grant.Job, grant.Shard)
		return err
	})
	within("Status", func() error {
		_, err := s.Status(first.ID)
		return err
	})
	within("streamPoint on another job", func() error {
		_, err := s.streamPoint("w2", otherGrant.Job, otherGrant.Shard, otherRow)
		return err
	})
	store.open()
	if err := <-streamed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st, err := s.Status(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.PointsStreamed != 1 || st.DoneRows != 1 {
		t.Errorf("first job: %d points streamed, %d rows held; want 1 and 1", st.PointsStreamed, st.DoneRows)
	}
}

// TestConcurrentStreamsOneRow: two streams of one row, both in
// Store.Put at once, land one row and count one resimulation.
func TestConcurrentStreamsOneRow(t *testing.T) {
	store := newSlowPutStore(t)
	s, err := NewServer(ServerConfig{Store: store, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(testWire(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	row := grantRows(t, grant)[0]
	store.held.Store(2)
	dups := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			dup, err := s.streamPoint("w", grant.Job, grant.Shard, row)
			if err != nil {
				t.Error(err)
			}
			dups <- dup
		}()
	}
	store.waitEntered(t, 2)
	store.open()
	if a, b := <-dups, <-dups; a == b {
		t.Errorf("duplicate flags %v and %v, want exactly one duplicate", a, b)
	}
	st, err := s.Status(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.PointsStreamed != 1 || st.PointsResimulated != 1 || st.DoneRows != 1 {
		t.Errorf("%d points streamed, %d resimulated, %d rows held; want 1, 1, 1",
			st.PointsStreamed, st.PointsResimulated, st.DoneRows)
	}
}
