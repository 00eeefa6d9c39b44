package dist

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/results"
)

// ServerConfig parameterizes a daemon.
type ServerConfig struct {
	// StateDir is the persistence root: StateDir/cache holds the
	// memoization store, StateDir/jobs the submitted specs, and a
	// daemon restarted over the same directory resumes its jobs.
	// Empty runs memory-only (no resume, in-process cache only).
	StateDir string
	// Store overrides the memoization backend (default: a DirStore
	// under StateDir/cache, or a MemStore when StateDir is empty).
	Store Store
	// Salt is the code-version salt folded into every fingerprint
	// (default results.CodeVersion).
	Salt string
	// LeaseTTL is how long a shard lease lives without a heartbeat
	// (default 30 s).
	LeaseTTL time.Duration
	// ShardSize is the default grid points per shard for submits that
	// do not choose (default DefaultShardSize).
	ShardSize int
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
	// Logf receives degradation and recovery notices (default
	// log.Printf).
	Logf func(format string, args ...any)
}

// Lease states a shard moves through; a lease expiry moves a shard
// back from shardLeased to shardPending (re-queue).
const (
	shardPending = iota
	shardLeased
	shardDone
)

// shard is one lease unit: a chunk of uncached grid-point indexes.
// Points stream back individually (job.have tracks them), so a
// re-leased shard grants only the indexes still missing.
type shard struct {
	id      int
	indexes []int
	state   int
	worker  string
	expiry  time.Time
	// requeues counts lease expiries — the at-least-once audit trail.
	requeues int
}

// job is one submitted campaign and its execution state.
type job struct {
	id        string
	wire      campaign.WireSpec
	shardSize int
	spec      campaign.Spec
	points    []campaign.Point
	fps       []string
	rows      []campaign.Result
	have      []bool
	shards    []*shard
	created   time.Time

	cachedPoints int
	lastRow      time.Time

	// degraded marks a job that hit a store error and fell back to
	// compute-everything mode: rows live in memory, merged output is
	// unaffected, but checkpoint/resume and memoization coverage are
	// reduced for the failed entries.
	degraded bool
	// Streaming accounting (see JobStatus).
	pointsStreamed    int
	pointsResimulated int
}

// done reports whether every shard completed.
func (j *job) done() bool {
	for _, sh := range j.shards {
		if sh.state != shardDone {
			return false
		}
	}
	return true
}

// JobStatus is one job's externally visible state — what GET /jobs,
// GET /jobs/{id}, and the /metrics endpoint report.
type JobStatus struct {
	// ID is the job identifier ("j1", "j2", ...).
	ID string `json:"id"`
	// Campaign is the result-row label; Scenario the registry name.
	Campaign string `json:"campaign"`
	Scenario string `json:"scenario"`
	// State is "running" or "done".
	State string `json:"state"`
	// TotalPoints is the grid size; CachedPoints how many were served
	// from the memoization store at admission; DoneRows how many rows
	// exist so far (cached + simulated).
	TotalPoints  int `json:"total_points"`
	CachedPoints int `json:"cached_points"`
	DoneRows     int `json:"done_rows"`
	// Shard accounting: done + inflight (leased) + pending = total.
	ShardsTotal    int `json:"shards_total"`
	ShardsDone     int `json:"shards_done"`
	ShardsInflight int `json:"shards_inflight"`
	ShardsPending  int `json:"shards_pending"`
	// Requeues counts lease expiries across the job's shards.
	Requeues int `json:"requeues"`
	// PointsStreamed counts simulated rows, each landed by its
	// point-level stream; PointsResimulated counts streamed rows the
	// server already had (work repeated after a crash or lease churn —
	// the smaller, the better the checkpointing worked).
	PointsStreamed    int `json:"points_streamed"`
	PointsResimulated int `json:"points_resimulated"`
	// Degraded reports the job fell back to compute-everything mode
	// after a store failure: output is still exact, but some rows were
	// not checkpointed/memoized.
	Degraded bool `json:"degraded"`
	// RowsPerSec is the simulated-row completion rate (cached rows
	// excluded) since submission; 0 until the first row lands.
	RowsPerSec float64 `json:"rows_per_sec"`
	// Created is the submission time.
	Created time.Time `json:"created"`
}

// WorkerStatus is one worker's liveness as seen by the server.
type WorkerStatus struct {
	// LastSeen is the worker's most recent lease, heartbeat or stream.
	LastSeen time.Time `json:"last_seen"`
	// Live reports recent contact (within two lease TTLs).
	Live bool `json:"live"`
}

// StoreHealth aggregates the memoization store's failure counters
// across the daemon's lifetime.
type StoreHealth struct {
	// GetErrors and PutErrors count store operations that failed and
	// were absorbed by degradation (planned as a miss, row kept in
	// memory only).
	GetErrors int64 `json:"get_errors"`
	PutErrors int64 `json:"put_errors"`
	// CorruptQuarantined counts entries the store renamed aside after
	// a failed integrity check (DirStore's CRC-32 envelope).
	CorruptQuarantined int64 `json:"corrupt_quarantined"`
}

// Metrics is the /metrics endpoint's payload: per-job progress, worker
// liveness, and store health.
type Metrics struct {
	// Jobs lists every job's status in submission order.
	Jobs []JobStatus `json:"jobs"`
	// Workers maps worker names to their liveness.
	Workers map[string]WorkerStatus `json:"workers"`
	// Store is the memoization store's health.
	Store StoreHealth `json:"store"`
}

// Server is the campaign-as-a-service daemon: job admission, the
// shard lease queue, point-level streaming checkpoints, row merging,
// and the memoization store, exposed over an HTTP/JSON API (Handler).
// See the package documentation for the determinism, at-least-once,
// and degradation contracts.
type Server struct {
	cfg ServerConfig

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job IDs in submission order
	seq     int
	workers map[string]time.Time
	// tokens maps submit idempotency tokens to job IDs so a retried
	// or transport-duplicated submit admits exactly one job.
	tokens map[string]string

	storeGetErrors int64
	storePutErrors int64
}

// jobRecord is the persisted submission (StateDir/jobs/<id>.json).
type jobRecord struct {
	// ID, Spec, and ShardSize replay the submission on daemon restart;
	// Created preserves the original submission time; Token rebuilds
	// the submit-idempotency map.
	ID        string            `json:"id"`
	Spec      campaign.WireSpec `json:"spec"`
	ShardSize int               `json:"shard_size"`
	Created   time.Time         `json:"created"`
	Token     string            `json:"token,omitempty"`
}

// NewServer assembles a daemon and, when the config names a state
// directory, resumes every persisted job: each spec is re-planned
// against the store, so points whose rows were already persisted come
// back as cache hits and only the remaining shards are queued. A job
// whose spec no longer plans is skipped and logged through Logf; its
// record stays on disk and its ID is not reused.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Salt == "" {
		cfg.Salt = results.CodeVersion
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Store == nil {
		if cfg.StateDir == "" {
			cfg.Store = NewMemStore()
		} else {
			store, err := NewDirStore(filepath.Join(cfg.StateDir, "cache"))
			if err != nil {
				return nil, err
			}
			store.Version = cfg.Salt
			cfg.Store = store
		}
	}
	s := &Server{
		cfg:     cfg,
		jobs:    map[string]*job{},
		workers: map[string]time.Time{},
		tokens:  map[string]string{},
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(filepath.Join(cfg.StateDir, "jobs"), 0o755); err != nil {
			return nil, err
		}
		if err := s.resume(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// resume reloads persisted job records and re-plans them against the
// (now possibly fuller) store.
func (s *Server) resume() error {
	dir := filepath.Join(s.cfg.StateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var recs []jobRecord
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		// A job that is not resumed still holds its ID.
		s.seq = max(s.seq, jobSeq(strings.TrimSuffix(name, ".json")))
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			// A torn or damaged record: skip it like an unplannable
			// one.
			s.cfg.Logf("dist: not resuming job record %s (kept in %s): %v", name, dir, err)
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return jobSeq(recs[i].ID) < jobSeq(recs[j].ID) })
	for _, rec := range recs {
		s.seq = max(s.seq, jobSeq(rec.ID))
		plan, err := NewPlan(rec.Spec, s.cfg.Store, s.cfg.Salt, rec.ShardSize)
		if err != nil {
			// The spec no longer plans (a tightened bound, a scenario
			// gone from the registry): skip that one job, keep its
			// record, and keep the daemon up for the rest.
			s.cfg.Logf("dist: not resuming job %s (record kept in %s): %v", rec.ID, dir, err)
			continue
		}
		j := s.buildJob(rec, plan)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if rec.Token != "" {
			s.tokens[rec.Token] = j.id
		}
	}
	return nil
}

// jobSeq extracts the numeric part of a job ID ("j7" → 7; 0 when
// malformed).
func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// buildJob turns a submission's plan into an executable job. Store
// failures during planning do not fail admission: the affected points
// planned as misses, and the job is marked degraded, counted in the
// daemon's store errors and logged (caller holds s.mu, or is
// NewServer's resume).
func (s *Server) buildJob(rec jobRecord, plan *Plan) *job {
	j := &job{
		id:        rec.ID,
		wire:      rec.Spec,
		shardSize: rec.ShardSize,
		spec:      plan.Spec,
		created:   rec.Created,
		rows:      make([]campaign.Result, len(plan.Points)),
		have:      make([]bool, len(plan.Points)),
	}
	if plan.StoreErrors > 0 {
		s.storeGetErrors += int64(plan.StoreErrors)
		j.degraded = true
		s.cfg.Logf("dist: job %s degraded at admission: %d store get failure(s), planning them as misses",
			j.id, plan.StoreErrors)
	}
	for _, pp := range plan.Points {
		j.points = append(j.points, pp.Point)
		j.fps = append(j.fps, pp.Fingerprint)
		if pp.Cached {
			j.rows[pp.Index] = *pp.Result
			j.have[pp.Index] = true
			j.cachedPoints++
		}
	}
	for i, idxs := range plan.Shards {
		j.shards = append(j.shards, &shard{id: i, indexes: idxs})
	}
	return j
}

// Submit admits a spec as a new job (shardSize ≤ 0 uses the server
// default) and returns its status. A spec whose every point is already
// in the store is born done — the repeated-sweep fast path. A
// non-empty token makes the call idempotent: retries and transport
// duplicates carrying a token the server has seen return the original
// job instead of admitting another. The grid is planned (fingerprinted
// and probed against the store) before the server's lock is taken, so
// a large admission never stalls leases, heartbeats, streams or status
// calls; of two concurrent submits with one token, the first to take
// the lock admits its job and the other's plan is dropped.
func (s *Server) Submit(spec campaign.WireSpec, shardSize int, token string) (JobStatus, error) {
	if shardSize <= 0 {
		shardSize = s.cfg.ShardSize
	}
	s.mu.Lock()
	st, seen := s.tokenStatusLocked(token)
	s.mu.Unlock()
	if seen {
		return st, nil
	}
	created := s.cfg.Now().UTC()
	plan, err := NewPlan(spec, s.cfg.Store, s.cfg.Salt, shardSize)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, seen := s.tokenStatusLocked(token); seen {
		return st, nil
	}
	rec := jobRecord{
		ID:        fmt.Sprintf("j%d", s.seq+1),
		Spec:      spec,
		ShardSize: shardSize,
		Created:   created,
		Token:     token,
	}
	if s.cfg.StateDir != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return JobStatus{}, err
		}
		path := filepath.Join(s.cfg.StateDir, "jobs", rec.ID+".json")
		if err := writeAtomic(path, data, nil); err != nil {
			return JobStatus{}, err
		}
	}
	j := s.buildJob(rec, plan)
	s.seq++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if token != "" {
		s.tokens[token] = j.id
	}
	return s.statusLocked(j), nil
}

// tokenStatusLocked returns the status of the job a submit token
// already admitted; an empty token never matches (caller holds s.mu).
func (s *Server) tokenStatusLocked(token string) (JobStatus, bool) {
	id, ok := s.tokens[token]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(s.jobs[id]), true
}

// statusLocked snapshots one job's status (caller holds s.mu).
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:                j.id,
		Campaign:          j.spec.Name,
		Scenario:          j.wire.Scenario,
		State:             "running",
		TotalPoints:       len(j.points),
		CachedPoints:      j.cachedPoints,
		ShardsTotal:       len(j.shards),
		Requeues:          0,
		PointsStreamed:    j.pointsStreamed,
		PointsResimulated: j.pointsResimulated,
		Degraded:          j.degraded,
		Created:           j.created,
	}
	for _, have := range j.have {
		if have {
			st.DoneRows++
		}
	}
	for _, sh := range j.shards {
		st.Requeues += sh.requeues
		switch sh.state {
		case shardPending:
			st.ShardsPending++
		case shardLeased:
			st.ShardsInflight++
		case shardDone:
			st.ShardsDone++
		}
	}
	if j.done() {
		st.State = "done"
	}
	if j.pointsStreamed > 0 && j.lastRow.After(j.created) {
		st.RowsPerSec = float64(j.pointsStreamed) / j.lastRow.Sub(j.created).Seconds()
	}
	return st
}

// expireLocked re-queues every lease the clock has outrun (caller
// holds s.mu). Each expiry is one requeue: the shard returns to the
// pending queue and the next lease hands it out again — granting only
// the points the dead worker had not yet streamed.
func (s *Server) expireLocked(now time.Time) {
	for _, id := range s.order {
		for _, sh := range s.jobs[id].shards {
			if sh.state == shardLeased && now.After(sh.expiry) {
				sh.state = shardPending
				sh.worker = ""
				sh.requeues++
			}
		}
	}
}

// touchLocked records worker contact for the liveness metrics.
func (s *Server) touchLocked(worker string, now time.Time) {
	if worker != "" {
		s.workers[worker] = now
	}
}

// putFailedLocked records that persisting one of j's rows failed: the
// job degrades to compute-everything mode — the row stays in memory,
// the sweep proceeds — instead of failing the delivery (caller holds
// s.mu).
func (s *Server) putFailedLocked(j *job, err error) {
	s.storePutErrors++
	if !j.degraded {
		j.degraded = true
		s.cfg.Logf("dist: job %s degraded: store put failed (%v); continuing without checkpoints for failed entries", j.id, err)
	}
}

// remainingLocked lists a shard's indexes that have no row yet —
// what a (re-)lease grants (caller holds s.mu).
func remainingLocked(j *job, sh *shard) []int {
	var out []int
	for _, i := range sh.indexes {
		if !j.have[i] {
			out = append(out, i)
		}
	}
	return out
}

// LeaseGrant is the server's answer to a lease request: one shard of
// one job, the spec to materialize it from, and the lease terms.
type LeaseGrant struct {
	// Job and Shard identify the lease; echo them in heartbeats and
	// streamed points.
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	// Spec is the job's wire spec — workers are stateless.
	Spec campaign.WireSpec `json:"spec"`
	// Indexes are the grid points to simulate, in campaign Points()
	// order. A re-leased shard grants only the points its previous
	// holder had not streamed back before dying.
	Indexes []int `json:"indexes"`
	// TTLMillis is the lease lifetime; heartbeat well within it.
	TTLMillis int64 `json:"ttl_ms"`
}

// lease hands the oldest pending shard to a worker (ok=false when no
// work is pending). A pending shard always lacks a row: the stream
// that lands a shard's last row closes it.
func (s *Server) lease(worker string) (LeaseGrant, bool) {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	s.touchLocked(worker, now)
	for _, id := range s.order {
		j := s.jobs[id]
		for _, sh := range j.shards {
			if sh.state != shardPending {
				continue
			}
			sh.state = shardLeased
			sh.worker = worker
			sh.expiry = now.Add(s.cfg.LeaseTTL)
			return LeaseGrant{
				Job:       j.id,
				Shard:     sh.id,
				Spec:      j.wire,
				Indexes:   remainingLocked(j, sh),
				TTLMillis: s.cfg.LeaseTTL.Milliseconds(),
			}, true
		}
	}
	return LeaseGrant{}, false
}

// heartbeat extends a lease the worker still holds; renewed=false
// tells the worker its lease was lost (expired and possibly
// re-leased, or closed by its last row), so its streamed rows may be
// duplicates.
func (s *Server) heartbeat(worker, jobID string, shardID int) (renewed bool, err error) {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	s.touchLocked(worker, now)
	j, sh, err := s.shardLocked(jobID, shardID)
	if err != nil {
		return false, err
	}
	_ = j
	if sh.state != shardLeased || sh.worker != worker {
		return false, nil
	}
	sh.expiry = now.Add(s.cfg.LeaseTTL)
	return true, nil
}

// shardLocked resolves a job/shard pair (caller holds s.mu).
func (s *Server) shardLocked(jobID string, shardID int) (*job, *shard, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, nil, fmt.Errorf("dist: unknown job %q", jobID)
	}
	if shardID < 0 || shardID >= len(j.shards) {
		return nil, nil, fmt.Errorf("dist: job %s has no shard %d", jobID, shardID)
	}
	return j, j.shards[shardID], nil
}

// streamPoint lands one worker-reported row the moment its simulation
// finishes — the point-level checkpoint and the only way a row reaches
// the server. The row is persisted to the store and merged into the
// job immediately, so a worker crash after this call costs at most the
// points still unstreamed. The row that leaves its shard with nothing
// missing closes the shard, whatever its lease state; any other row
// refreshes the streaming worker's lease (a streaming worker is
// evidently alive). Duplicates — the point re-simulated after lease
// churn — are verified against the held row and acknowledged.
func (s *Server) streamPoint(worker, jobID string, shardID int, row campaign.Result) (duplicate bool, err error) {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	s.touchLocked(worker, now)
	j, sh, err := s.shardLocked(jobID, shardID)
	if err != nil {
		return false, err
	}
	if err := validateRow(j, sh, &row); err != nil {
		return false, err
	}
	if held, err := s.heldLocked(j, row); err != nil || held {
		return held, err
	}
	// Persist before acknowledging, but outside the lock: a store write
	// (a temp file, fsync and rename for DirStore) must not hold up
	// every lease, heartbeat, status call and other stream.
	s.mu.Unlock()
	putErr := s.cfg.Store.Put(j.fps[row.Index], row)
	s.mu.Lock()
	if putErr != nil {
		s.putFailedLocked(j, putErr)
	}
	// A concurrent stream of the same point may have landed meanwhile.
	if held, err := s.heldLocked(j, row); err != nil || held {
		return held, err
	}
	now = s.cfg.Now()
	j.rows[row.Index] = row
	j.have[row.Index] = true
	j.pointsStreamed++
	j.lastRow = now
	switch {
	case len(remainingLocked(j, sh)) == 0:
		sh.state = shardDone
	case sh.state == shardLeased && sh.worker == worker:
		sh.expiry = now.Add(s.cfg.LeaseTTL)
	}
	return false, nil
}

// validateRow checks that a streamed row belongs to shard sh of job j
// and rehydrates it (caller holds s.mu).
func validateRow(j *job, sh *shard, row *campaign.Result) error {
	inShard := false
	for _, i := range sh.indexes {
		if i == row.Index {
			inShard = true
			break
		}
	}
	if !inShard {
		return fmt.Errorf("dist: job %s shard %d: streamed point %d not in shard",
			j.id, sh.id, row.Index)
	}
	// Canonicalize before comparing or storing: the wire trip drops
	// the Point's unexported sweep flags, and the label/index fields
	// are job-local (rehydrate's contract).
	rehydrate(row, j.spec.Name, j.points[row.Index])
	return nil
}

// heldLocked reports whether j already holds row's point: an equal row
// counts as a resimulation, an unequal one is a conflict (caller holds
// s.mu).
func (s *Server) heldLocked(j *job, row campaign.Result) (bool, error) {
	if !j.have[row.Index] {
		return false, nil
	}
	if !reflect.DeepEqual(j.rows[row.Index], row) {
		return false, fmt.Errorf("dist: job %s: streamed point %d conflicts with held row (non-deterministic producer or code-version mismatch)",
			j.id, row.Index)
	}
	j.pointsResimulated++
	return true, nil
}

// Rows returns a completed job's merged rows — byte-identical, through
// the campaign emitters, to a serial campaign.Run of the same spec.
// The merge re-validates completeness from the individual row parts
// (streamed points land rows one by one), so a bookkeeping bug
// surfaces as an explicit merge error rather than a zero-filled row.
// For a running job it errors unless partial is set, in which case the
// completed rows are returned as-is (missing points absent, not
// zero-filled).
func (s *Server) Rows(jobID string, partial bool) (campaign.Results, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("dist: unknown job %q", jobID)
	}
	var parts campaign.Results
	for i, have := range j.have {
		if have {
			parts = append(parts, j.rows[i])
		}
	}
	if !j.done() {
		if !partial {
			return nil, fmt.Errorf("dist: job %s still running", jobID)
		}
		return parts, nil
	}
	return results.Merge(len(j.points), parts)
}

// Status returns one job's status.
func (s *Server) Status(jobID string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Now())
	j, ok := s.jobs[jobID]
	if !ok {
		return JobStatus{}, fmt.Errorf("dist: unknown job %q", jobID)
	}
	return s.statusLocked(j), nil
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Now())
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// MetricsSnapshot returns the /metrics payload.
func (s *Server) MetricsSnapshot() Metrics {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	m := Metrics{
		Workers: map[string]WorkerStatus{},
		Store: StoreHealth{
			GetErrors: s.storeGetErrors,
			PutErrors: s.storePutErrors,
		},
	}
	if cc, ok := s.cfg.Store.(interface{ CorruptCount() int64 }); ok {
		m.Store.CorruptQuarantined = cc.CorruptCount()
	}
	for _, id := range s.order {
		m.Jobs = append(m.Jobs, s.statusLocked(s.jobs[id]))
	}
	for w, seen := range s.workers {
		m.Workers[w] = WorkerStatus{
			LastSeen: seen.UTC(),
			Live:     now.Sub(seen) < 2*s.cfg.LeaseTTL,
		}
	}
	return m
}

// Handler returns the HTTP/JSON API:
//
//	POST /jobs            {"spec": WireSpec, "shard_size": n, "token": t} → JobStatus
//	GET  /jobs            → [JobStatus]
//	GET  /jobs/{id}       → JobStatus
//	GET  /jobs/{id}/rows  → campaign rows (?partial=1 while running)
//	POST /jobs/{id}/shards/{sid}/points
//	                      {"worker": w, "row": Result} → {"duplicate": bool}
//	POST /lease           {"worker": w} → LeaseGrant | 204
//	POST /heartbeat       {"worker": w, "job": id, "shard": n} → {"renewed": bool}
//	GET  /metrics         → Metrics (JSON; Prometheus text exposition
//	                        when the Accept header prefers text/plain)
//
// The package documentation states each endpoint's retry and
// idempotency contract.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Spec      campaign.WireSpec `json:"spec"`
			ShardSize int               `json:"shard_size"`
			Token     string            `json:"token"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		st, err := s.Submit(req.Spec, req.ShardSize, req.Token)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /jobs/{id}/rows", func(w http.ResponseWriter, r *http.Request) {
		partial := r.URL.Query().Get("partial") == "1"
		rows, err := s.Rows(r.PathValue("id"), partial)
		if err != nil {
			code := http.StatusNotFound
			if strings.Contains(err.Error(), "still running") {
				code = http.StatusConflict
			}
			httpError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		rows.WriteJSON(w)
	})
	mux.HandleFunc("POST /jobs/{id}/shards/{sid}/points", func(w http.ResponseWriter, r *http.Request) {
		shardID, err := strconv.Atoi(r.PathValue("sid"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("dist: bad shard id %q", r.PathValue("sid")))
			return
		}
		var req struct {
			Worker string          `json:"worker"`
			Row    campaign.Result `json:"row"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		dup, err := s.streamPoint(req.Worker, r.PathValue("id"), shardID, req.Row)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]bool{"duplicate": dup})
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		grant, ok := s.lease(req.Worker)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, grant)
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
			Job    string `json:"job"`
			Shard  int    `json:"shard"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		renewed, err := s.heartbeat(req.Worker, req.Job, req.Shard)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, map[string]bool{"renewed": renewed})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			writePrometheus(w, s.MetricsSnapshot())
			return
		}
		writeJSON(w, s.MetricsSnapshot())
	})
	return mux
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError emits a JSON error envelope.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
