// Differential geometry harness: the medium's general engine is the
// oracle for its single-collision-domain path. The oracle runs the
// near-degenerate geometry, whose finite values keep the power matrix,
// the sensed-power sums and the SINR decisions in play while still
// coupling every radio to every other, so it must agree with a nil
// Geometry. Driven from the same ht150 network workload as the
// scheduler differential suite, the two paths must produce identical
// event-time traces, and a campaign sweep must emit byte-identical
// result rows. Any divergence is a bug in one of the two paths.
package node_test

import (
	"bytes"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// nearDegenerate is DefaultGeometry with carrier sense and the
// delivery floor at -300 dBm and a 10⁶ dB capture margin: every radio
// senses and receives every frame and any overlap collides, but the
// values are finite, so the medium does not take its single-domain
// path.
func nearDegenerate() *channel.Geometry {
	g := channel.DefaultGeometry()
	g.CSThresholdDBm = -300
	g.DeliveryFloorDBm = -300
	g.CaptureMarginDB = 1e6
	return g
}

// geometryTrace runs the ht150 network (aggregated 802.11n, HACK
// MORE-DATA, 3 TCP downloads) on the given geometry and records the
// virtual time of every executed event.
func geometryTrace(geom *channel.Geometry, loss float64, maxEvents int) ([]sim.Time, uint64) {
	opts := []scenario.Option{
		scenario.With80211n(),
		scenario.WithClients(3),
		scenario.WithMode(hack.ModeMoreData),
	}
	if loss > 0 {
		opts = append(opts, scenario.WithUniformLoss(loss))
	}
	cfg := scenario.New(opts...)
	cfg.Geometry = geom
	n := node.New(cfg)
	for ci := 0; ci < 3; ci++ {
		n.StartDownload(ci, 0, sim.Duration(ci)*sim.Millisecond)
	}
	trace := make([]sim.Time, 0, maxEvents)
	for len(trace) < maxEvents && n.Sched.Step() {
		trace = append(trace, n.Sched.Now())
	}
	return trace, n.Sched.EventsFired()
}

// TestDifferentialGeometryTrace requires the single-domain path to
// replay the general engine's event trace under the near-degenerate
// geometry exactly, lossless and at 5% uniform loss. Loss exercises the
// RNG path: both must draw exactly the same random numbers at the same
// points, or retry timers shift and the traces diverge.
func TestDifferentialGeometryTrace(t *testing.T) {
	const maxEvents = 200_000
	for _, tc := range []struct {
		name string
		loss float64
	}{{"lossless", 0}, {"loss5pct", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			single, singleFired := geometryTrace(nil, tc.loss, maxEvents)
			general, generalFired := geometryTrace(nearDegenerate(), tc.loss, maxEvents)
			if len(single) != len(general) {
				t.Fatalf("trace length: single-domain %d, general %d", len(single), len(general))
			}
			if len(single) < maxEvents/2 {
				t.Fatalf("single-domain trace: only %d events", len(single))
			}
			for i := range single {
				if single[i] != general[i] {
					t.Fatalf("trace diverges at event %d: single-domain %v, general %v",
						i, single[i], general[i])
				}
			}
			if singleFired != generalFired {
				t.Fatalf("events fired: single-domain %d, general %d", singleFired, generalFired)
			}
		})
	}
}

// TestDifferentialCampaignRows runs one small sweep twice — a nil
// Geometry vs the same base on the near-degenerate geometry — and
// requires the emitted JSON result rows to be byte-identical: every
// metric, counter, and airtime bucket, across modes, seeds, and a
// lossy point.
func TestDifferentialCampaignRows(t *testing.T) {
	spec := func(geom *channel.Geometry) campaign.Spec {
		cfg := scenario.New(scenario.With80211n(), scenario.WithClients(2))
		cfg.Geometry = geom
		return campaign.Spec{
			Name: "differential",
			Base: cfg,
			Axes: campaign.Axes{
				Modes: []hack.Mode{hack.ModeOff, hack.ModeMoreData},
				Seeds: campaign.Seeds(1, 2),
				Loss:  []float64{0, 0.05},
			},
			Warmup:  100 * sim.Millisecond,
			Measure: 200 * sim.Millisecond,
			Workers: 2,
			Airtime: true,
		}
	}
	var single, general bytes.Buffer
	if err := campaign.Run(spec(nil)).WriteJSON(&single); err != nil {
		t.Fatal(err)
	}
	if err := campaign.Run(spec(nearDegenerate())).WriteJSON(&general); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single.Bytes(), general.Bytes()) {
		t.Errorf("campaign rows diverge between the single-domain path and the general engine:\n--- single-domain ---\n%s\n--- general ---\n%s",
			single.String(), general.String())
	}
}
