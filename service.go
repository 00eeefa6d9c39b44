package tcphack

// Campaign-as-a-service: the distributed sweep-execution layer
// (internal/dist). A DistServer daemon owns a job queue of WireCampaign
// specs, plans them into shards against a content-addressed
// memoization store, and leases shards to DistWorkers over HTTP/JSON;
// merged output is byte-identical to a serial RunCampaign, jobs
// survive daemon restarts via the state directory, and repeated or
// overlapping sweeps only simulate grid points whose fingerprints are
// not already in the store. See internal/dist's package documentation
// for the determinism and at-least-once lease contracts.

import (
	"tcphack/internal/campaign"
	"tcphack/internal/dist"
	"tcphack/internal/results"
)

// Wire-form campaign specs: the serializable subset of Campaign that
// distributed jobs (and -dry-run planning) are declared in.
type (
	// WireCampaign declares a distributable campaign: a registered
	// scenario name plus wire-form axes and measurement windows.
	WireCampaign = campaign.WireSpec
	// WireCampaignAxes are sweep axes in command-line vocabulary.
	WireCampaignAxes = campaign.WireAxes
)

// Distributed execution layer.
type (
	// DistServer is the campaign-as-a-service daemon.
	DistServer = dist.Server
	// DistServerConfig parameterizes a daemon (state dir, lease TTL,
	// shard size).
	DistServerConfig = dist.ServerConfig
	// DistWorker pulls and simulates leased shards.
	DistWorker = dist.Worker
	// DistClient speaks the daemon's HTTP/JSON API.
	DistClient = dist.Client
	// DistLeaseGrant is one leased shard: the job, the wire spec, and
	// the grid-point indexes to simulate.
	DistLeaseGrant = dist.LeaseGrant
	// DistStore is the content-addressed memoization backend.
	DistStore = dist.Store
	// DistPlan is a spec resolved against a store: fingerprinted
	// points, expected cache hits, and the shard layout.
	DistPlan = dist.Plan
	// DistRetryPolicy bounds a DistClient's retry loop: capped
	// exponential backoff with deterministic jitter, per-attempt
	// timeouts, and no retries on 4xx verdicts.
	DistRetryPolicy = dist.RetryPolicy
)

// NewDistServer assembles a daemon, resuming any jobs persisted in the
// config's state directory.
func NewDistServer(cfg DistServerConfig) (*DistServer, error) { return dist.NewServer(cfg) }

// NewDistDirStore opens the file-dir memoization store rooted at dir.
func NewDistDirStore(dir string) (DistStore, error) { return dist.NewDirStore(dir) }

// NewDistPlan fingerprints a wire spec's grid against a store (nil =
// nothing cached) and chunks the uncached points into shards — the
// planning step behind job admission and hackbench -dry-run.
func NewDistPlan(w WireCampaign, store DistStore, salt string, shardSize int) (*DistPlan, error) {
	return dist.NewPlan(w, store, salt, shardSize)
}

// PurgeDistStore garbage-collects a memoization store directory:
// entries written by code versions other than keepVersion and
// quarantined corrupt files are deleted (dryRun only counts them).
// Stale-version entries can never be served again — the version salts
// the fingerprint — so purging them is always safe.
func PurgeDistStore(dir, keepVersion string, dryRun bool) (int, error) {
	store, err := dist.NewDirStore(dir)
	if err != nil {
		return 0, err
	}
	return store.Purge(keepVersion, dryRun)
}

// SimCodeVersion is the simulator behavior version salted into every
// memoization fingerprint (results.CodeVersion).
const SimCodeVersion = results.CodeVersion
