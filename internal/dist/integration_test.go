package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcphack/internal/campaign"
)

// startDaemon serves a Server over loopback HTTP and returns a client
// for it.
func startDaemon(t *testing.T, s *Server) (*httptest.Server, Client) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, Client{BaseURL: ts.URL}
}

// runWorkers drives n workers against the daemon until the job reports
// done, then drains them.
func runWorkers(t *testing.T, c Client, jobID string, n int) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error)
	for i := 0; i < n; i++ {
		w := &Worker{
			Client: c,
			Name:   string(rune('a' + i)),
			Poll:   5 * time.Millisecond,
		}
		go func() { done <- w.Run(ctx) }()
	}
	st, err := c.WaitDone(ctx, jobID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for %s: %v", jobID, err)
	}
	cancel()
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("worker exited: %v", err)
		}
	}
	return st
}

// TestLoopbackTwoWorkersMatchSerial is the acceptance path: a sweep
// executed by a daemon and two workers over loopback HTTP must emit
// byte-identical rows to a serial campaign.Run of the same spec.
func TestLoopbackTwoWorkersMatchSerial(t *testing.T) {
	s, err := NewServer(ServerConfig{ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startDaemon(t, s)

	w := testWire()
	st, err := c.Submit(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalPoints != 4 || st.ShardsTotal != 4 || st.CachedPoints != 0 {
		t.Fatalf("submit status %+v", st)
	}
	final := runWorkers(t, c, st.ID, 2)
	if final.State != "done" || final.DoneRows != 4 {
		t.Fatalf("final status %+v", final)
	}

	rows, err := c.Rows(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, rows), rowsJSON(t, serialRows(t, w)); got != want {
		t.Errorf("distributed rows not byte-identical to serial:\n got:  %s\n want: %s", got, want)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 1 || len(m.Workers) != 2 {
		t.Errorf("metrics = %d jobs, %d workers; want 1, 2", len(m.Jobs), len(m.Workers))
	}
	for name, ws := range m.Workers {
		if !ws.Live {
			t.Errorf("worker %s not live in metrics", name)
		}
	}
}

// TestDaemonRestartResumesJob: a daemon killed mid-job and restarted
// over the same state directory must re-plan the persisted spec against
// the store — the rows already delivered come back as cache hits, only
// the remaining shards run, and the final output is byte-identical to
// serial.
func TestDaemonRestartResumesJob(t *testing.T) {
	state := t.TempDir()
	w := testWire()

	s1, err := NewServer(ServerConfig{StateDir: state, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(w, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	// One shard completes, then the daemon "crashes" (s1 is abandoned;
	// every completed row is already persisted in the store).
	grant, ok := s1.lease("w")
	if !ok {
		t.Fatal("no lease")
	}
	completeShard(t, s1, "w", grant)

	s2, err := NewServer(ServerConfig{StateDir: state, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := s2.Status(st.ID)
	if err != nil {
		t.Fatalf("job not resumed: %v", err)
	}
	if resumed.CachedPoints != 1 || resumed.ShardsTotal != 3 || resumed.State != "running" {
		t.Fatalf("resumed status %+v, want 1 cached point and 3 remaining shards", resumed)
	}

	_, c := startDaemon(t, s2)
	runWorkers(t, c, st.ID, 2)
	rows, err := c.Rows(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, rows), rowsJSON(t, serialRows(t, w)); got != want {
		t.Errorf("resumed rows not byte-identical to serial:\n got:  %s\n want: %s", got, want)
	}

	// A third restart after completion: the job is born done from the
	// store alone.
	s3, err := NewServer(ServerConfig{StateDir: state, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s3.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.CachedPoints != 4 {
		t.Fatalf("post-completion restart status %+v", final)
	}
}

// TestZombieWorkerLeaseRecovered: a worker that leases a shard and
// vanishes must not wedge the job — after the TTL the shard is
// re-queued (exactly once) and a live worker finishes it.
func TestZombieWorkerLeaseRecovered(t *testing.T) {
	s, err := NewServer(ServerConfig{ShardSize: 4, LeaseTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startDaemon(t, s)

	w := testWire()
	st, err := c.Submit(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The zombie takes the only shard and is never heard from again.
	if _, ok, err := c.Lease("zombie"); err != nil || !ok {
		t.Fatalf("zombie lease: ok=%v err=%v", ok, err)
	}

	final := runWorkers(t, c, st.ID, 1)
	if final.Requeues != 1 {
		t.Errorf("requeues = %d, want exactly 1", final.Requeues)
	}
	rows, err := c.Rows(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, rows), rowsJSON(t, serialRows(t, w)); got != want {
		t.Error("recovered rows not byte-identical to serial")
	}
}

// TestRepeatedSweepFullyMemoized: submitting the same sweep to a fresh
// daemon sharing the store simulates nothing — and an overlapping
// superset sweep only simulates the new points.
func TestRepeatedSweepFullyMemoized(t *testing.T) {
	store := NewMemStore()
	s, err := NewServer(ServerConfig{Store: store, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startDaemon(t, s)

	w := testWire()
	st, err := c.Submit(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, st.ID, 2)
	if store.Len() != 4 {
		t.Fatalf("store holds %d rows, want 4", store.Len())
	}

	again, err := c.Submit(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != "done" || again.CachedPoints != 4 || again.ShardsTotal != 0 {
		t.Fatalf("repeat not fully memoized: %+v", again)
	}
	a, err := c.Rows(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Rows(again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rowsJSON(t, a) != rowsJSON(t, b) {
		t.Error("memoized rows differ from the simulated originals")
	}

	// Superset sweep: one extra seed → only the 2 new points simulate.
	wider := w
	wider.Axes.Seeds = []int64{1, 2, 3}
	st3, err := c.Submit(wider, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st3.TotalPoints != 6 || st3.CachedPoints != 4 || st3.ShardsTotal != 2 {
		t.Fatalf("superset sweep plan %+v, want 4 of 6 cached", st3)
	}
	runWorkers(t, c, st3.ID, 1)
	if store.Len() != 6 {
		t.Errorf("store holds %d rows after superset, want 6", store.Len())
	}
}

// TestHTTPErrors: API-level failure modes reach clients as typed
// errors, not hangs or wrong-shaped bodies.
func TestHTTPErrors(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startDaemon(t, s)

	if _, err := c.Status("j42"); err == nil {
		t.Error("unknown job status did not error")
	}
	if _, err := c.Submit(campaign.WireSpec{Scenario: "nope"}, 0); err == nil {
		t.Error("bad spec accepted")
	}
	st, err := c.Submit(testWire(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rows(st.ID); err == nil {
		t.Error("rows of a running job served")
	}
	if grant, ok, err := c.Lease("w"); err != nil || !ok || len(grant.Indexes) != 4 {
		t.Errorf("lease over HTTP: ok=%v err=%v grant=%+v", ok, err, grant)
	}
	if _, ok, err := c.Lease("w2"); err != nil || ok {
		t.Errorf("empty queue lease: ok=%v err=%v (want 204 → ok=false)", ok, err)
	}
}

// TestResumeSkipsUnplannableJob: a state directory holding a job whose
// spec no longer plans (clients 0, admitted before the axes were
// range-checked) must not keep the daemon from starting. That job is
// logged and skipped with its record left on disk, the valid job
// resumes and finishes, and a new submission gets a fresh ID.
func TestResumeSkipsUnplannableJob(t *testing.T) {
	state := t.TempDir()
	s1, err := NewServer(ServerConfig{StateDir: state, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := s1.Submit(testWire(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	bad := testWire()
	bad.Axes.Clients = []int{0}
	rec, err := json.Marshal(jobRecord{ID: "j2", Spec: bad, ShardSize: 1, Created: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(state, "jobs", "j2.json")
	if err := os.WriteFile(badPath, rec, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	s2, err := NewServer(ServerConfig{StateDir: state, ShardSize: 1, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatalf("daemon refused to start: %v", err)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "j2") || !strings.Contains(logs[0], "clients axis value 0") {
		t.Errorf("logs = %q, want one line naming j2 and its plan error", logs)
	}
	if _, err := s2.Status("j2"); err == nil {
		t.Error("unplannable job j2 was resumed")
	}
	if _, err := os.Stat(badPath); err != nil {
		t.Errorf("j2's record is gone: %v", err)
	}

	_, c := startDaemon(t, s2)
	if final := runWorkers(t, c, valid.ID, 1); final.State != "done" {
		t.Errorf("resumed job %s ended %q, want done", valid.ID, final.State)
	}
	next, err := c.Submit(testWire(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j3" {
		t.Errorf("new submission got ID %s, want j3", next.ID)
	}
}

// TestSubmitRejectsOversizedGrid: POST /jobs refuses a grid over the
// wire bound with 400 before planning it — the axes of
// `hackbench -sweep ht150-stock -runs 100000`.
func TestSubmitRejectsOversizedGrid(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := startDaemon(t, s)
	w := campaign.WireSpec{Scenario: "ht150-stock", Axes: campaign.WireAxes{Seeds: campaign.Seeds(1, 100000)}}
	body, err := json.Marshal(map[string]any{"spec": w})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /jobs with 100000 seeds: status %d (%s), want 400", resp.StatusCode, msg)
	}
	if len(s.Jobs()) != 0 {
		t.Errorf("oversized grid admitted: %+v", s.Jobs())
	}
}
