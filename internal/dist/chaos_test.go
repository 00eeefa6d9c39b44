package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/results"
)

// TestChaosCrashMidShardResimulatesOnlyUnstreamed is the streaming
// checkpoint's acceptance test: a worker SIGKILLed mid-shard loses its
// lease, and the re-lease grants exactly the points it had not yet
// streamed — the streamed half is already checkpointed in the store
// and never re-simulated.
func TestChaosCrashMidShardResimulatesOnlyUnstreamed(t *testing.T) {
	clock := newFakeClock()
	store := NewMemStore()
	s, err := NewServer(ServerConfig{Store: store, LeaseTTL: time.Minute, ShardSize: 4, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testWire(), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := s.lease("victim")
	if !ok || len(grant.Indexes) != 4 {
		t.Fatalf("grant = %+v ok=%v, want all 4 points", grant, ok)
	}
	rows := grantRows(t, grant)

	// The victim streams two points, then the kernel takes it.
	for _, r := range rows[:2] {
		if dup, err := s.streamPoint("victim", grant.Job, grant.Shard, r); err != nil || dup {
			t.Fatalf("stream: dup=%v err=%v", dup, err)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d rows, want the 2 streamed checkpoints", store.Len())
	}

	clock.advance(2 * time.Minute)
	re, ok := s.lease("rescuer")
	if !ok || re.Job != grant.Job || re.Shard != grant.Shard {
		t.Fatalf("re-lease = %+v ok=%v, want the victim's shard", re, ok)
	}
	if !reflect.DeepEqual(re.Indexes, grant.Indexes[2:]) {
		t.Fatalf("re-lease grants %v, want only the unstreamed %v", re.Indexes, grant.Indexes[2:])
	}

	// The rescuer simulates and streams just those two points — the
	// rest of the shard is already on the server, so its last row
	// closes the shard.
	for _, r := range grantRows(t, re) {
		if dup, err := s.streamPoint("rescuer", re.Job, re.Shard, r); err != nil || dup {
			t.Fatalf("rescuer stream: dup=%v err=%v", dup, err)
		}
	}

	final, err := s.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Requeues != 1 {
		t.Fatalf("final = %+v, want done with 1 requeue", final)
	}
	if final.PointsStreamed != 4 || final.PointsResimulated != 0 {
		t.Errorf("streamed=%d resimulated=%d, want 4 streamed and zero repeated work",
			final.PointsStreamed, final.PointsResimulated)
	}
	got, err := s.Rows(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if rowsJSON(t, got) != rowsJSON(t, serialRows(t, testWire())) {
		t.Error("recovered rows not byte-identical to serial")
	}
	// Memoization-hit cross-check: every point hit the store exactly
	// once, so a resubmission is born done.
	if store.Len() != 4 {
		t.Errorf("store holds %d rows, want 4", store.Len())
	}
	again, err := s.Submit(testWire(), 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || again.CachedPoints != 4 {
		t.Errorf("resubmission = %+v, want born done from the checkpoints", again)
	}
}

// TestChaosLateStreamerIsDuplicate: a killed worker that was only
// presumed dead keeps streaming after its shard was re-leased; its
// rows match what the server already holds and are absorbed as
// duplicates, counted as repeated work.
func TestChaosLateStreamerIsDuplicate(t *testing.T) {
	clock := newFakeClock()
	s, err := NewServer(ServerConfig{LeaseTTL: time.Minute, ShardSize: 4, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testWire(), 4, ""); err != nil {
		t.Fatal(err)
	}
	grant, _ := s.lease("zombie")
	spec, _ := grant.Spec.Spec()
	rows, err := campaign.RunPoints(context.Background(), spec, grant.Indexes)
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	re, ok := s.lease("live")
	if !ok {
		t.Fatal("no re-lease")
	}
	if dup, err := s.streamPoint("live", re.Job, re.Shard, rows[0]); err != nil || dup {
		t.Fatalf("live stream: dup=%v err=%v", dup, err)
	}
	// The zombie reports the same point late.
	dup, err := s.streamPoint("zombie", grant.Job, grant.Shard, rows[0])
	if err != nil || !dup {
		t.Fatalf("zombie stream: dup=%v err=%v, want duplicate ack", dup, err)
	}
	st, _ := s.Status(grant.Job)
	if st.PointsResimulated != 1 {
		t.Errorf("resimulated = %d, want 1", st.PointsResimulated)
	}
	// A corrupted late report — wrong data for a point the server
	// already holds — is rejected, not absorbed as a duplicate.
	bad := rows[0]
	bad.AggregateMbps++
	if _, err := s.streamPoint("zombie", grant.Job, grant.Shard, bad); err == nil ||
		!strings.Contains(err.Error(), "conflicts") {
		t.Errorf("conflicting row not rejected: %v", err)
	}
}

// downStore is a store whose backend is entirely unavailable.
type downStore struct{}

func (downStore) Get(string) (*campaign.Result, error) {
	return nil, errors.New("store backend down")
}
func (downStore) Put(string, campaign.Result) error {
	return errors.New("store backend down")
}

// TestChaosStoreUnavailableDegrades: with the memoization store dead,
// a sweep still completes with byte-identical output — it just
// computes everything — and the degradation is visible in the job
// status, the metrics counters, the Prometheus exposition, and the
// log.
func TestChaosStoreUnavailableDegrades(t *testing.T) {
	var logLines []string
	s, err := NewServer(ServerConfig{
		Store:     downStore{},
		ShardSize: 2,
		Logf:      func(format string, args ...any) { logLines = append(logLines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testWire(), 2, "")
	if err != nil {
		t.Fatalf("submit must survive a dead store: %v", err)
	}
	if !st.Degraded {
		t.Errorf("job not degraded at admission: %+v", st)
	}
	for {
		grant, ok := s.lease("w")
		if !ok {
			break
		}
		streamShard(t, s, "w", grant)
	}
	final, err := s.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || !final.Degraded {
		t.Fatalf("final = %+v, want done and degraded", final)
	}
	got, err := s.Rows(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if rowsJSON(t, got) != rowsJSON(t, serialRows(t, testWire())) {
		t.Error("degraded-mode rows not byte-identical to serial")
	}

	m := s.MetricsSnapshot()
	if m.Store.GetErrors != 4 || m.Store.PutErrors != 4 {
		t.Errorf("store health = %+v, want 4 get and 4 put errors", m.Store)
	}
	var prom bytes.Buffer
	writePrometheus(&prom, m)
	for _, frag := range []string{
		`tcphack_job_degraded{job="` + st.ID + `"`,
		"tcphack_store_get_errors 4",
		"tcphack_store_put_errors 4",
	} {
		if !strings.Contains(prom.String(), frag) {
			t.Errorf("prometheus exposition missing %q", frag)
		}
	}
	degradedLogs := 0
	for _, line := range logLines {
		if strings.Contains(line, "degraded") {
			degradedLogs++
		}
	}
	if degradedLogs == 0 {
		t.Errorf("no degradation log line in %q", logLines)
	}
}

// chaosLifetime is the seeded kill schedule: how long worker
// incarnation (slot, gen) lives before its Kill channel closes.
func chaosLifetime(slot, gen int) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "life|%d|%d", slot, gen)
	return 25*time.Millisecond + time.Duration(h.Sum64()%uint64(90*time.Millisecond))
}

// TestChaosSoakByteIdenticalUnderFaults is the full soak: a daemon and
// a fleet of three worker slots over loopback HTTP, every worker
// killed on a seeded schedule mid-shard, every HTTP request subject to
// drops/duplicates/503s/delays, every store operation subject to
// failures and silent corruption, plus one zombie lease that is never
// completed. The sweep must finish with rows byte-identical to serial,
// and every fault class the harness claims to inject must actually
// have fired. A second submission of the same sweep then survives the
// same regime, corruption quarantine included, with identical rows.
func TestChaosSoakByteIdenticalUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	w := testWire()
	w.Axes.Seeds = []int64{1, 2, 3, 4, 5} // 10 points, 5 shards of 2
	serial := serialRows(t, w)

	inner, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fstore := &FaultStore{
		Inner: inner, Seed: 11,
		FailGet: 0.35, FailPut: 0.3, CorruptPut: 0.4, Delay: 0.3,
		MaxDelay: time.Millisecond,
	}
	s, err := NewServer(ServerConfig{
		Store:    fstore,
		Salt:     results.CodeVersion,
		LeaseTTL: 400 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ftrans := &FaultTransport{
		Seed:        12,
		DropRequest: 0.04, DropResponse: 0.04, Duplicate: 0.06, Err503: 0.06, Delay: 0.08,
		MaxDelay: time.Millisecond,
	}
	hc := &http.Client{Transport: ftrans}
	newClient := func(name string) Client {
		return Client{
			BaseURL:    ts.URL,
			HTTPClient: hc,
			Retry: RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   time.Millisecond,
				MaxDelay:    20 * time.Millisecond,
				Timeout:     10 * time.Second,
				Seed:        name,
			},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// runFleet relaunches killed workers in 3 slots until the job is
	// done, then reaps the fleet.
	runFleet := func(jobID string) JobStatus {
		fleetCtx, stopFleet := context.WithCancel(ctx)
		defer stopFleet()
		var wg sync.WaitGroup
		for slot := 0; slot < 3; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for gen := 0; fleetCtx.Err() == nil; gen++ {
					name := fmt.Sprintf("%s-w%d-%d", jobID, slot, gen)
					kill := make(chan struct{})
					timer := time.AfterFunc(chaosLifetime(slot, gen), func() { close(kill) })
					wk := &Worker{
						Client:  newClient(name),
						Name:    name,
						Poll:    2 * time.Millisecond,
						MaxPoll: 30 * time.Millisecond,
						Kill:    kill,
						// Stretch each point so the seeded kills land
						// mid-shard, not between shards.
						OnPoint: func(LeaseGrant, int, bool, error) { time.Sleep(8 * time.Millisecond) },
					}
					wk.Run(fleetCtx)
					timer.Stop()
				}
			}(slot)
		}
		waiter := newClient("waiter-" + jobID)
		st, err := waiter.WaitDone(ctx, jobID, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("chaos sweep %s did not finish: %v", jobID, err)
		}
		stopFleet()
		wg.Wait()
		return st
	}

	control := newClient("control")
	st, err := control.Submit(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One shard goes to a zombie that is never heard from again — a
	// guaranteed lease expiry on top of the probabilistic kills.
	if _, ok := s.lease("zombie"); !ok {
		t.Fatal("no zombie lease")
	}

	final := runFleet(st.ID)
	rows, err := control.Rows(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, rows), rowsJSON(t, serial); got != want {
		t.Errorf("chaos rows not byte-identical to serial:\n got:  %s\n want: %s", got, want)
	}
	if final.Requeues < 1 {
		t.Errorf("requeues = %d, want at least the zombie's", final.Requeues)
	}
	if final.PointsStreamed == 0 {
		t.Error("no points streamed — checkpoints never exercised")
	}
	t.Logf("phase 1: %+v", final)

	// Phase 2: the same sweep again, same fault regime. Whatever the
	// store preserved is reused; corrupted entries are quarantined or
	// overwritten; the output must not change by a byte.
	st2, err := control.Submit(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatal("second submit deduplicated against the first (tokens must differ)")
	}
	final2 := st2
	if st2.State != "done" {
		final2 = runFleet(st2.ID)
	}
	rows2, err := control.Rows(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, rows2), rowsJSON(t, serial); got != want {
		t.Errorf("phase-2 rows not byte-identical to serial:\n got:  %s\n want: %s", got, want)
	}
	t.Logf("phase 2: %+v (cached %d, quarantined %d)", final2, st2.CachedPoints, inner.CorruptCount())

	// The soak only proves what it injected: every fault class must
	// actually have fired.
	sst := fstore.Stats()
	for name, n := range map[string]int64{
		"store FailedGets":    sst.FailedGets,
		"store FailedPuts":    sst.FailedPuts,
		"store CorruptedPuts": sst.CorruptedPuts,
		"store Delayed":       sst.Delayed,
	} {
		if n == 0 {
			t.Errorf("fault class %q never fired (stats %+v)", name, sst)
		}
	}
	tst := ftrans.Stats()
	for name, n := range map[string]int64{
		"transport DroppedRequests":  tst.DroppedRequests,
		"transport DroppedResponses": tst.DroppedResponses,
		"transport Duplicated":       tst.Duplicated,
		"transport Injected503s":     tst.Injected503s,
		"transport Delayed":          tst.Delayed,
	} {
		if n == 0 {
			t.Errorf("fault class %q never fired (stats %+v)", name, tst)
		}
	}

	// Degradation bookkeeping matches what the fault layer injected.
	m := s.MetricsSnapshot()
	if m.Store.PutErrors != sst.FailedPuts {
		t.Errorf("metrics put errors = %d, fault layer fired %d", m.Store.PutErrors, sst.FailedPuts)
	}
	if m.Store.GetErrors != sst.FailedGets {
		t.Errorf("metrics get errors = %d, fault layer fired %d", m.Store.GetErrors, sst.FailedGets)
	}
}
