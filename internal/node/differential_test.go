// Differential channel harness. The medium's general engine is the
// oracle for its single-collision-domain path. The oracle runs the
// near-degenerate geometry, whose finite values keep the power matrix,
// the sensed-power sums and the SINR decisions in play while still
// coupling every radio to every other, so it must agree with a nil
// Geometry. Driven from the same ht150 network workload as the
// scheduler differential suite, the two paths must produce identical
// event-time traces, and a campaign sweep must emit byte-identical
// result rows.
//
// The listening path is the oracle for idle stations. A station with
// nothing to do stops listening — in a single collision domain to
// every frame, under the general engine to carrier edges — and catches
// up when its state is next read; a station with a tracer never stops.
// So a network with a discarding tracer on every station, where every
// station listens to every frame, must run exactly as the same network
// bare. Any divergence is a bug in one of the two paths.
package node_test

import (
	"bytes"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/mac"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
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

// idleCase is one network of the idle-station differential: a config
// and the workload that drives it.
type idleCase struct {
	name     string
	cfg      node.Config
	workload func(*node.Network, campaign.Point)
}

// idleCases are the trace-digest networks on the single collision
// domain, which pin the listening path, plus the 1000-station UDP grid
// of BenchmarkScale, where almost every station is idle.
func idleCases(t *testing.T) []idleCase {
	registered := func(name string, opts ...scenario.Option) node.Config {
		e, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		return e.Config(opts...)
	}
	download, err := campaign.NamedWorkload("download")
	if err != nil {
		t.Fatal(err)
	}
	upload, err := campaign.NamedWorkload("upload")
	if err != nil {
		t.Fatal(err)
	}
	const gridStations = 1000
	return []idleCase{
		{"grid-1000-udp", scenario.New(scenario.With80211n(), scenario.WithGrid(gridStations, 2)),
			func(n *node.Network, _ campaign.Point) {
				for ci := range n.Clients {
					n.StartUDPDownload(ci, 80_000/gridStations, 1500, sim.Duration(ci)*37*sim.Microsecond)
				}
			}},
		{"ht150-moredata-4c-loss5", registered("ht150-moredata", scenario.WithClients(4), scenario.WithUniformLoss(0.05)), download},
		{"ht150-timer-upload-3c", registered("ht150-upload", scenario.WithClients(3), scenario.WithMode(hack.ModeTimer)), upload},
		{"a54-stock-4c-loss2", scenario.New(scenario.WithClients(4), scenario.WithUniformLoss(0.02)), download},
		{"sora-opportunistic-4c", registered("sora-opportunistic", scenario.WithClients(4)), download},
	}
}

// stations lists every station of n: each BSS's AP, then its clients.
func stations(n *node.Network) []*mac.Station {
	var sts []*mac.Station
	for _, b := range n.BSSes {
		sts = append(sts, b.AP.MAC)
		for _, c := range b.Clients {
			sts = append(sts, c.MAC)
		}
	}
	return sts
}

// deafCases are networks on the spatial PHY, where an idle station
// stops taking carrier edges but keeps its deliveries: hidden and
// overlapping BSSs, a dense grid, nine overlapping MORE-DATA BSSs at 5%
// loss, and the 100-station grid of BenchmarkScaleSpatial.
func deafCases(t *testing.T) []idleCase {
	registered := func(name string, opts ...scenario.Option) node.Config {
		e, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		return e.Config(opts...)
	}
	download, err := campaign.NamedWorkload("download")
	if err != nil {
		t.Fatal(err)
	}
	bss := make([]node.BSSSpec, 9)
	for i := range bss {
		bss[i] = node.BSSSpec{APPos: channel.Pos{X: 40 * float64(i%3), Y: 40 * float64(i/3)}, Clients: 3}
	}
	const gridStations = 100
	grid := scenario.New(scenario.With80211n(), scenario.WithGrid(gridStations, 2), scenario.WithPathLoss())
	return []idleCase{
		{"2bss-hidden-moredata", registered("2bss-hidden", scenario.WithMode(hack.ModeMoreData)), download},
		{"2bss-overlap", registered("2bss-overlap"), download},
		{"grid-3x3-dense", registered("grid-3x3-dense"), download},
		{"floor-3x3-moredata-3c-loss5", scenario.New(scenario.With80211n(), scenario.WithPathLoss(),
			scenario.WithBSSLayout(bss...), scenario.WithMode(hack.ModeMoreData), scenario.WithUniformLoss(0.05)), download},
		{"grid-100-udp-spatial", grid, func(n *node.Network, _ campaign.Point) {
			for ci := range n.Clients {
				n.StartUDPDownload(ci, 80_000/gridStations, 1500, sim.Duration(ci)*37*sim.Microsecond)
			}
		}},
	}
}

// TestDifferentialIdleStations runs each idle case bare and with
// trace.Nop on every station (see lockstepListening).
func TestDifferentialIdleStations(t *testing.T) {
	for _, c := range idleCases(t) {
		t.Run(c.name, func(t *testing.T) { lockstepListening(t, c) })
	}
}

// TestDifferentialDeafStations runs each spatial case bare and with
// trace.Nop on every station (see lockstepListening).
func TestDifferentialDeafStations(t *testing.T) {
	for _, c := range deafCases(t) {
		t.Run(c.name, func(t *testing.T) { lockstepListening(t, c) })
	}
}

// lockstepListening runs c bare and with trace.Nop on every station, in
// lockstep for 1 s: every event must run at the same time, and at the
// end the events fired and every station's Stats and TCPAckTime must
// agree. Then a short campaign of c must emit byte-identical rows both
// ways.
func lockstepListening(t *testing.T, c idleCase) {
	const until = sim.Time(sim.Second)
	listening := c.cfg
	listening.Tracer = trace.Nop{}
	bare, oracle := node.New(c.cfg), node.New(listening)
	c.workload(bare, campaign.Point{})
	c.workload(oracle, campaign.Point{})
	for i := 0; ; i++ {
		ok, okOracle := bare.Sched.Step(), oracle.Sched.Step()
		if ok != okOracle || bare.Sched.Now() != oracle.Sched.Now() {
			t.Fatalf("event %d: bare runs at %v (%v), listening at %v (%v)",
				i, bare.Sched.Now(), ok, oracle.Sched.Now(), okOracle)
		}
		if !ok || bare.Sched.Now() >= until {
			break
		}
	}
	if a, b := bare.Sched.EventsFired(), oracle.Sched.EventsFired(); a != b || a < 10_000 {
		t.Errorf("events fired: bare %d, listening %d; want equal and at least 10,000", a, b)
	}
	sts, want := stations(bare), stations(oracle)
	for i, st := range sts {
		if st.Stats != want[i].Stats || st.TCPAckTime != want[i].TCPAckTime {
			t.Errorf("station %d: bare %+v %+v, listening %+v %+v",
				i, st.Stats, st.TCPAckTime, want[i].Stats, want[i].TCPAckTime)
		}
	}
	spec := campaign.Spec{
		Name:     c.name,
		Base:     c.cfg,
		Workload: c.workload,
		Warmup:   200 * sim.Millisecond,
		Measure:  300 * sim.Millisecond,
		Workers:  1,
	}
	var rows, oracleRows bytes.Buffer
	if err := campaign.Run(spec).WriteJSON(&rows); err != nil {
		t.Fatal(err)
	}
	spec.Trace = func(campaign.Point) trace.Tracer { return trace.Nop{} }
	if err := campaign.Run(spec).WriteJSON(&oracleRows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rows.Bytes(), oracleRows.Bytes()) {
		t.Errorf("rows differ:\n--- bare ---\n%s\n--- listening ---\n%s", rows.String(), oracleRows.String())
	}
}
