// Package dist is the campaign-as-a-service layer: it executes sweep
// grids across processes and machines while preserving, bit for bit,
// the output contract of a serial in-process campaign.Run.
//
// A Server (hackbench -serve) owns a queue of jobs, each a
// campaign.WireSpec — a registered scenario plus wire-form axes —
// planned into shards of grid-point indexes. Workers (hackbench
// -worker <url>) lease shards over HTTP/JSON, simulate them point by
// point with campaign.RunPoints, stream each finished row back
// immediately, and deliver the whole shard at the end; the server
// merges rows by grid index through results.Merge and serves the
// completed job in campaign.Results form. A submit client (hackbench
// -submit) posts specs and fetches rows.
//
// # Determinism contract
//
// Every grid point is an independent, seed-deterministic simulation,
// so a job's merged output is byte-identical to campaign.Run executed
// serially in one process — regardless of worker count, shard size,
// lease churn, retries, duplicate deliveries, injected faults, or how
// many points were served from the memoization store. The contract
// holds only across processes running the same build:
// results.CodeVersion salts every memoization key, and both the
// streaming endpoint and results.Merge reject conflicting duplicate
// rows, so a version skew between workers surfaces as an explicit
// error rather than silently mixed output.
//
// # At-least-once lease contract
//
// Shards are leased, not assigned: a lease grants one worker the right
// to simulate a shard until the lease expires. Workers heartbeat to
// keep long shards alive; a lease that expires (worker crash, network
// partition, missed heartbeats) is re-queued exactly once per expiry
// and handed to the next worker that asks — granting only the points
// the previous holder had not already streamed back. A point may
// therefore be simulated more than once — at-least-once execution —
// which is safe precisely because of the determinism contract:
// duplicate rows are identical, verified to be, and acknowledged
// idempotently. What is never possible is a job completing with rows
// from two different simulations of one point.
//
// # Checkpoint/resume and memoization
//
// Every row is persisted into a content-addressed Store keyed by its
// point fingerprint (results.PointFingerprint over
// campaign.WireSpec.FingerprintFields plus the code-version salt) the
// moment it reaches the server — streamed rows individually, the rest
// at shard completion, always before the delivery is acknowledged.
// The store is therefore both the checkpoint and the cache, at point
// granularity: a worker killed mid-shard costs only its unstreamed
// points; a daemon restarted over the same state directory re-plans
// its persisted job specs and finds the completed points in the store;
// a re-submitted or overlapping sweep simulates only fingerprints the
// store does not hold. A persisted job whose spec no longer plans (a
// bound tightened since it was admitted, a scenario gone from the
// registry) is logged and skipped at restart, its record left on disk
// and its ID never reused; the other jobs resume.
//
// Admission plans every point of a grid, so the wire spec bounds the
// grid: campaign.WireSpec.Spec rejects more than 16384 points from the
// axis lengths alone, and POST /jobs answers such a spec with 400.
//
// The file-dir store wraps every entry in a CRC-32 integrity envelope,
// written via temp-file + fsync + atomic rename. An entry that fails
// its integrity check on read — torn write, bit rot, pre-envelope
// build — is quarantined (renamed *.corrupt) and reported as a miss,
// so the worst corruption can ever cause is re-simulation, never a
// wrong row. Stale-version and quarantined entries are reclaimed by
// Purge (hackbench -store-gc).
//
// # Degradation contract
//
// The memoization store is an accelerator, never a dependency. A store
// whose backend fails — unreadable at planning, unwritable at row
// landing — demotes the affected job to compute-everything mode: the
// failed reads plan as misses, the failed writes leave rows in server
// memory only, the sweep proceeds, and the output is still exact. The
// fallback is observable, not silent: the job carries a degraded flag,
// the daemon logs the first demotion, and /metrics exposes the
// per-class store error counters (JSON and Prometheus text
// exposition).
//
// # Endpoint retry and idempotency contract
//
// Clients retry transport errors and 5xx responses with capped
// exponential backoff and deterministic jitter; 4xx responses are
// verdicts and are never retried. Retrying is safe on every endpoint;
// the table below is normative. "Idempotent" means a duplicate of the
// same logical request (client retry, or a network-level duplicate)
// converges to the first request's outcome.
//
//	POST /jobs        Idempotent via the client-generated submit token:
//	                  the server admits one job per token and replays
//	                  its status for every duplicate. Tokenless submits
//	                  admit a new job each time.
//	POST /lease       Not idempotent (each call may grant a different
//	                  shard), but safe: a grant whose response is lost
//	                  is simply a lease nobody works, re-queued at
//	                  expiry. 204 means an empty queue.
//	POST /heartbeat   Idempotent; renews only while the caller still
//	                  holds the lease. renewed=false signals a lost
//	                  lease, never an error.
//	POST /jobs/{id}/shards/{sid}/points
//	                  Idempotent: a row the server already holds is
//	                  verified equal and acknowledged duplicate=true;
//	                  a conflicting row is rejected 4xx. Persists the
//	                  checkpoint before responding and refreshes the
//	                  streamer's lease.
//	POST /complete    Idempotent: a delivery for a shard already done
//	                  is acknowledged duplicate=true; held rows always
//	                  win and deliveries are verified against them.
//	                  Partial deliveries are accepted when the missing
//	                  points already streamed in.
//	GET  /jobs, /jobs/{id}, /jobs/{id}/rows, /metrics
//	                  Read-only, trivially idempotent.
//
// # Fault injection
//
// FaultStore and FaultTransport wrap the store and the client's HTTP
// transport with seeded deterministic fault schedules — failures,
// delays, silent post-write corruption, dropped requests and
// responses, duplicates, synthetic 503s — each firing counted per
// class. The chaos tests (and CI's chaos-smoke job) run full sweeps
// under kills and faults and assert both that the output stayed
// byte-identical and that every fault class actually fired.
package dist
