package dist

import (
	"fmt"

	"tcphack/internal/campaign"
	"tcphack/internal/results"
)

// DefaultShardSize is the grid points per shard when a submit does not
// choose: small enough that a lost lease wastes little work, large
// enough that lease round trips amortize.
const DefaultShardSize = 4

// PlannedPoint is one grid point annotated with its memoization fate.
type PlannedPoint struct {
	// Index is the point's position in campaign Points() order.
	Index int
	// Point is the materialized grid point.
	Point campaign.Point
	// Fingerprint is the point's content-addressed identity.
	Fingerprint string
	// Cached reports a memoization-store hit; Result then holds the
	// rehydrated row and no simulation is scheduled.
	Cached bool
	// Result is the cached row (nil unless Cached).
	Result *campaign.Result
}

// Plan is a campaign spec resolved against a memoization store: every
// grid point fingerprinted and probed, the uncached remainder chunked
// into shards. The same planner serves the daemon's job admission,
// daemon restart/resume (re-planning persisted specs against the now
// fuller store), and hackbench -dry-run's what-would-run report.
type Plan struct {
	// Wire is the spec the plan was built from.
	Wire campaign.WireSpec
	// Spec is the materialized campaign.
	Spec campaign.Spec
	// Points annotates every grid point in Points() order.
	Points []PlannedPoint
	// Shards lists the uncached point indexes, chunked in grid order;
	// each shard is one lease unit.
	Shards [][]int
	// Cached counts the store hits among Points.
	Cached int
	// StoreErrors counts points whose store probe failed outright (the
	// backend was unavailable, not merely a miss). Those points plan as
	// uncached — a sweep must survive a dead store — and a nonzero count
	// marks the resulting job degraded.
	StoreErrors int
}

// NewPlan fingerprints the spec's grid against the store and chunks
// the uncached points into shards of shardSize (DefaultShardSize when
// ≤ 0). Cached rows are rehydrated for the plan's job: the stored
// metrics are reused while the identity fields the fingerprint
// deliberately excludes (campaign label, grid index) are rewritten for
// this spec, so a hit from an overlapping sweep under another name
// merges indistinguishably from a fresh simulation. A nil store plans
// every point as uncached, and so does a failing one: a store error is
// counted in StoreErrors and the point scheduled for simulation,
// because a broken cache must cost recomputation, never the sweep.
func NewPlan(w campaign.WireSpec, store Store, salt string, shardSize int) (*Plan, error) {
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	p := &Plan{Wire: w, Spec: spec}
	pts := spec.Points()
	if len(pts) == 0 {
		return nil, fmt.Errorf("dist: spec %q plans an empty grid", w.DisplayName())
	}
	var shard []int
	for _, pt := range pts {
		pp := PlannedPoint{
			Index:       pt.Index,
			Point:       pt,
			Fingerprint: results.PointFingerprint(salt, w.FingerprintFields(pt)),
		}
		if store != nil {
			cached, err := store.Get(pp.Fingerprint)
			if err != nil {
				p.StoreErrors++
				cached = nil
			}
			if cached != nil {
				r := *cached
				rehydrate(&r, spec.Name, pt)
				pp.Cached, pp.Result = true, &r
				p.Cached++
			}
		}
		if !pp.Cached {
			shard = append(shard, pt.Index)
			if len(shard) == shardSize {
				p.Shards = append(p.Shards, shard)
				shard = nil
			}
		}
		p.Points = append(p.Points, pp)
	}
	if len(shard) > 0 {
		p.Shards = append(p.Shards, shard)
	}
	return p, nil
}

// rehydrate rewrites a cached row's identity fields for the job it is
// joining: the campaign label and the full Point (grid index, swept
// flags) are job-local, while every measurement is content-addressed
// and reused as stored.
func rehydrate(r *campaign.Result, name string, pt campaign.Point) {
	r.Campaign = name
	r.Point = pt
	r.ModeName = pt.Mode.String()
	r.RateKbps = pt.Rate.Kbps
}
