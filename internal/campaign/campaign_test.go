package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// testSpec is a small but non-trivial grid over the SoRa scenario:
// 2 modes × 2 client counts × 2 seeds = 8 lossy simulations.
func testSpec(workers int) Spec {
	return Spec{
		Name: "determinism",
		Base: scenario.New(scenario.WithSoRa(), scenario.WithUniformLoss(0.01)),
		Axes: Axes{
			Modes:   []hack.Mode{hack.ModeOff, hack.ModeMoreData},
			Clients: []int{1, 2},
			Seeds:   Seeds(1, 2),
		},
		Warmup:  500 * sim.Millisecond,
		Measure: 500 * sim.Millisecond,
		Workers: workers,
	}
}

// TestParallelMatchesSerial is the campaign's core guarantee: the same
// sweep produces row-for-row identical results with 1 worker, with
// GOMAXPROCS workers, and with an oversubscribed pool (8 goroutines
// even on a single-core machine, so interleaving is exercised
// regardless of the host).
func TestParallelMatchesSerial(t *testing.T) {
	serial := Run(testSpec(1))
	if len(serial) != 8 {
		t.Fatalf("serial rows = %d, want 8", len(serial))
	}
	for _, workers := range []int{runtime.GOMAXPROCS(0), 8} {
		parallel := Run(testSpec(workers))
		if !reflect.DeepEqual(serial, parallel) {
			for i := range serial {
				if !reflect.DeepEqual(serial[i], parallel[i]) {
					t.Errorf("workers=%d row %d differs:\n serial:   %+v\n parallel: %+v",
						workers, i, serial[i], parallel[i])
				}
			}
			t.Fatalf("workers=%d run diverged from serial run", workers)
		}
	}
	// The runs must have simulated something real.
	for _, r := range serial {
		if r.AggregateMbps <= 0 {
			t.Errorf("row %d: no goodput (%+v)", r.Index, r)
		}
		if r.MPDUsDelivered == 0 {
			t.Errorf("row %d: no MPDUs delivered", r.Index)
		}
	}
}

// TestLargeNParallelMatchesSerial extends the determinism guarantee to
// the 500-station grid scenario the timing wheel targets: a dense
// topology whose per-event NAV/carrier churn stresses the wheel's
// cascade and min-cache paths far harder than the small CI grids. Rows
// must be identical serial vs. parallel, and a RunPoints shard must
// reproduce the full run's rows exactly.
func TestLargeNParallelMatchesSerial(t *testing.T) {
	const stations = 500
	spec := func(workers int) Spec {
		return Spec{
			Name: "large-n",
			Base: scenario.New(scenario.With80211n(), scenario.WithGrid(stations, 2)),
			Axes: Axes{
				Modes: []hack.Mode{hack.ModeOff},
				Seeds: Seeds(1, 2),
			},
			Warmup:  100 * sim.Millisecond,
			Measure: 100 * sim.Millisecond,
			Workers: workers,
			Workload: func(n *node.Network, pt Point) {
				for ci := 0; ci < stations; ci++ {
					n.StartUDPDownload(ci, 160, 1500, sim.Duration(ci)*37*sim.Microsecond)
				}
			},
		}
	}
	serial := Run(spec(1))
	if len(serial) != 2 {
		t.Fatalf("serial rows = %d, want 2", len(serial))
	}
	for _, r := range serial {
		if r.AggregateMbps <= 0 {
			t.Errorf("row %d: no goodput (%+v)", r.Index, r)
		}
	}
	parallel := Run(spec(runtime.NumCPU()))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("500-station parallel run diverged from serial run")
	}
	shard, err := RunPoints(context.Background(), spec(1), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shard[0], serial[1]) {
		t.Error("500-station RunPoints shard differs from the full run's row")
	}
}

// TestAdaptersAxisParallelMatchesSerial extends the determinism
// guarantee to rate adaptation: Minstrel keeps per-station learned
// state and draws probe schedules from an RNG, all of which must be
// forked per network — a parallel sweep over an Adapters axis must be
// row-identical to the serial run.
func TestAdaptersAxisParallelMatchesSerial(t *testing.T) {
	spec := func(workers int) Spec {
		return Spec{
			Name: "adapters",
			Base: scenario.New(scenario.With80211n(), scenario.WithSNR(22)),
			Axes: Axes{
				Modes:    []hack.Mode{hack.ModeOff, hack.ModeMoreData},
				Adapters: []string{"fixed", "ideal", "minstrel"},
			},
			Warmup:  500 * sim.Millisecond,
			Measure: 500 * sim.Millisecond,
			Workers: workers,
		}
	}
	serial := Run(spec(1))
	if len(serial) != 6 {
		t.Fatalf("serial rows = %d, want 6", len(serial))
	}
	parallel := Run(spec(8))
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("row %d differs:\n serial:   %+v\n parallel: %+v", i, serial[i], parallel[i])
			}
		}
		t.Fatal("adapters-axis parallel run diverged from serial run")
	}
	for _, r := range serial {
		if r.Adapter != "fixed" && r.AggregateMbps <= 0 {
			t.Errorf("row %d (%s): no goodput", r.Index, r.Adapter)
		}
	}
	// At SNR 22 the fixed 150 Mbps rate is hopeless (zero goodput —
	// the oracle drops to a clean mid rate instead), which is the
	// whole point of the axis: the adapter rows must beat the
	// pinned-rate rows.
	byAdapter := map[string]float64{}
	for _, r := range serial {
		if r.Mode == hack.ModeOff {
			byAdapter[r.Adapter] = r.AggregateMbps
		}
	}
	if byAdapter["ideal"] <= byAdapter["fixed"] {
		t.Errorf("ideal (%.1f Mbps) did not beat fixed MCS7 (%.1f Mbps) at SNR 22",
			byAdapter["ideal"], byAdapter["fixed"])
	}
	if byAdapter["minstrel"] <= byAdapter["fixed"] {
		t.Errorf("minstrel (%.1f Mbps) did not beat fixed MCS7 (%.1f Mbps) at SNR 22",
			byAdapter["minstrel"], byAdapter["fixed"])
	}
}

func TestPointsOrderAndDefaults(t *testing.T) {
	s := testSpec(1)
	pts := s.Points()
	if len(pts) != 8 {
		t.Fatalf("%d points, want 8", len(pts))
	}
	// Order: modes outermost, seeds innermost.
	want := []struct {
		mode    hack.Mode
		clients int
		seed    int64
	}{
		{hack.ModeOff, 1, 1}, {hack.ModeOff, 1, 2},
		{hack.ModeOff, 2, 1}, {hack.ModeOff, 2, 2},
		{hack.ModeMoreData, 1, 1}, {hack.ModeMoreData, 1, 2},
		{hack.ModeMoreData, 2, 1}, {hack.ModeMoreData, 2, 2},
	}
	for i, w := range want {
		p := pts[i]
		if p.Index != i || p.Mode != w.mode || p.Clients != w.clients || p.Seed != w.seed {
			t.Errorf("point %d = %+v, want mode=%v clients=%d seed=%d", i, p, w.mode, w.clients, w.seed)
		}
	}

	// Empty axes fall back to the base configuration.
	base := Spec{Base: node.Config{Seed: 9, Clients: 3, Mode: hack.ModeTimer}}
	pts = base.Points()
	if len(pts) != 1 {
		t.Fatalf("%d points, want 1", len(pts))
	}
	if pts[0].Mode != hack.ModeTimer || pts[0].Clients != 3 || pts[0].Seed != 9 {
		t.Errorf("defaults not drawn from base: %+v", pts[0])
	}
}

func TestAxisConfigMaterialization(t *testing.T) {
	s := Spec{
		Base: scenario.New(scenario.With80211n()),
		Axes: Axes{
			Rates: []phy.Rate{phy.HTRate(3, 1)},
			Loss:  []float64{0.02},
		},
	}
	pts := s.Points()
	if len(pts) != 1 {
		t.Fatalf("%d points, want 1", len(pts))
	}
	cfg := s.config(pts[0])
	if cfg.DataRate != phy.HTRate(3, 1) {
		t.Errorf("rate axis not applied: %v", cfg.DataRate)
	}
	if cfg.Err == nil {
		t.Error("loss axis did not install an error model")
	}
	if pts[0].LossPct != 2 {
		t.Errorf("LossPct = %v, want 2", pts[0].LossPct)
	}
}

// stubRadio satisfies channel.Radio for direct error-model queries.
type stubRadio struct {
	channel.Port
	pos channel.Pos
}

func (r *stubRadio) Position() channel.Pos                                 { return r.pos }
func (*stubRadio) CarrierBusy()                                            {}
func (*stubRadio) CarrierIdle()                                            {}
func (*stubRadio) EndRx(tx *channel.Transmission, outcome channel.Outcome) {}

// TestLossAndSNRAxesCompose: sweeping both error-model axes must
// simulate their combination, not let one silently win — rows at the
// same SNR but different loss must differ.
func TestLossAndSNRAxesCompose(t *testing.T) {
	s := Spec{
		Base: scenario.New(scenario.With80211n()),
		Axes: Axes{Loss: []float64{0, 0.3}, SNRsDB: []float64{25}},
	}
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	cfg0, cfg1 := s.config(pts[0]), s.config(pts[1])
	// Identical SNR, different loss: the combined model must differ.
	src, dst := &stubRadio{}, &stubRadio{pos: channel.Pos{X: 5}}
	p0 := cfg0.Err.LossProb(src, dst, cfg0.DataRate, 1500)
	p1 := cfg1.Err.LossProb(src, dst, cfg1.DataRate, 1500)
	if p1 <= p0 {
		t.Errorf("loss axis ignored when combined with SNR: p(loss=0)=%v p(loss=0.3)=%v", p0, p1)
	}
	if p1 < 0.3 {
		t.Errorf("combined loss %v below the uniform component 0.3", p1)
	}
}

// TestRateAxisFollowsControlResponseRules: sweeping Rates behaves like
// scenario.WithRate — a preset's pinned LL ACK rate is released so the
// 802.11 basic-rate rules pick it per eliciting frame.
func TestRateAxisFollowsControlResponseRules(t *testing.T) {
	s := Spec{
		Base: scenario.New(scenario.With80211n()), // pins AckRate to 24 Mbps
		Axes: Axes{Rates: []phy.Rate{phy.HTRate(0, 1)}},
	}
	cfg := s.config(s.Points()[0])
	if !cfg.AckRate.IsZero() {
		t.Errorf("AckRate still pinned at %v while sweeping rates", cfg.AckRate)
	}
}

func TestSkip(t *testing.T) {
	s := testSpec(1)
	s.Axes = Axes{Modes: []hack.Mode{hack.ModeOff}, Clients: []int{1, 2}}
	s.Skip = func(pt Point) bool { return pt.Clients == 2 }
	rs := Run(s)
	if len(rs) != 2 {
		t.Fatalf("%d rows", len(rs))
	}
	if rs[0].Skipped || rs[0].AggregateMbps <= 0 {
		t.Errorf("row 0 should have run: %+v", rs[0])
	}
	if !rs[1].Skipped || rs[1].AggregateMbps != 0 {
		t.Errorf("row 1 should be skipped with zero metrics: %+v", rs[1])
	}
}

func TestCollectAndDurationMode(t *testing.T) {
	s := Spec{
		Name:     "fixed",
		Base:     scenario.New(scenario.WithSoRa()),
		Duration: 2 * sim.Second,
		Workload: func(n *node.Network, pt Point) {
			n.StartDownload(0, 1<<20, 0) // bounded 1 MB transfer
		},
		Collect: func(n *node.Network, r *Result) {
			r.Extra = map[string]float64{"native_acks": float64(n.Clients[0].Driver.Acct.NativeAcks)}
		},
	}
	rs := Run(s)
	if len(rs) != 1 {
		t.Fatalf("%d rows", len(rs))
	}
	r := rs[0]
	if r.FlowsDone != 1 || r.FlowsTotal != 1 {
		t.Errorf("1 MB transfer did not complete in 2 s: %+v", r)
	}
	if r.AggregateMbps <= 0 {
		t.Error("duration-mode goodput not measured")
	}
	if r.Extra["native_acks"] == 0 {
		t.Error("Collect hook did not run (no native ACKs recorded)")
	}
}

// TestProgressMonotonic: the Progress callback must fire exactly once
// per grid point with a strictly increasing done count, regardless of
// worker interleaving.
func TestProgressMonotonic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := testSpec(workers)
		var dones []int
		s.Progress = func(done, total int) {
			if total != 8 {
				t.Errorf("workers=%d: total = %d, want 8", workers, total)
			}
			dones = append(dones, done)
		}
		rs, err := RunContext(context.Background(), s)
		if err != nil {
			t.Fatalf("workers=%d: RunContext: %v", workers, err)
		}
		if len(rs) != 8 || len(dones) != 8 {
			t.Fatalf("workers=%d: %d rows, %d progress calls, want 8/8", workers, len(rs), len(dones))
		}
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("workers=%d: progress call %d reported done=%d (not monotonic)", workers, i, d)
			}
		}
	}
}

// TestRunContextCancellation: cancelling mid-sweep must stop feeding
// new points and return promptly with the completed rows plus the
// context's error.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := testSpec(1)
	s.Progress = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	rs, err := RunContext(ctx, s)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rs) != 8 {
		t.Fatalf("%d rows, want the full (partially zero) 8-row slice", len(rs))
	}
	// Row 0 completed before the cancel; the tail never ran (with one
	// worker at most one more point can already be in flight). Unrun
	// points must come back Skipped so emitters and the results layer
	// don't mistake them for real zero measurements.
	if rs[0].Skipped || rs[0].AggregateMbps <= 0 {
		t.Errorf("row 0 should have completed: %+v", rs[0])
	}
	ran := 0
	for i, r := range rs {
		if r.Campaign != "determinism" {
			t.Errorf("row %d lost its campaign label: %+v", i, r)
		}
		if !r.Skipped {
			ran++
		} else if r.Index != i || r.AggregateMbps != 0 {
			t.Errorf("unrun row %d not a clean skipped placeholder: %+v", i, r)
		}
	}
	if ran > 2 {
		t.Errorf("%d rows ran after cancellation at done=1 with 1 worker, want ≤ 2", ran)
	}
	// The partial run must agree row-for-row with an uncancelled one.
	full := Run(testSpec(1))
	for i, r := range rs {
		if !r.Skipped && !reflect.DeepEqual(r, full[i]) {
			t.Errorf("partial row %d differs from the full run", i)
		}
	}
}

// TestNamedWorkloads: the registered traffic patterns must measure
// goodput through the standard metrics — in particular upload goodput,
// which lands at the wired peer rather than a client, must be folded
// into AggregateMbps.
func TestNamedWorkloads(t *testing.T) {
	run := func(kind string, clients int) Result {
		wl, err := NamedWorkload(kind)
		if err != nil {
			t.Fatalf("NamedWorkload(%q): %v", kind, err)
		}
		s := Spec{
			Name:     kind,
			Base:     scenario.New(scenario.WithSoRa(), scenario.WithClients(clients)),
			Warmup:   500 * sim.Millisecond,
			Measure:  500 * sim.Millisecond,
			Workers:  1,
			Workload: wl,
		}
		return Run(s)[0]
	}

	up := run("upload", 1)
	if up.AggregateMbps <= 0 {
		t.Errorf("upload workload: aggregate %.2f Mbps, want > 0 (upload flows not folded in?)", up.AggregateMbps)
	}
	if up.PerClientMbps[0] != 0 {
		t.Errorf("upload workload: client meter %.2f Mbps, want 0 (goodput lands at the peer)", up.PerClientMbps[0])
	}

	mixed := run("mixed", 2)
	if mixed.PerClientMbps[0] <= 0 {
		t.Errorf("mixed workload: downloading client got %.2f Mbps", mixed.PerClientMbps[0])
	}
	if mixed.AggregateMbps <= mixed.PerClientMbps[0]+mixed.PerClientMbps[1] {
		t.Errorf("mixed workload: aggregate %.2f Mbps does not exceed the download share %.2f (upload missing)",
			mixed.AggregateMbps, mixed.PerClientMbps[0]+mixed.PerClientMbps[1])
	}

	if _, err := NamedWorkload("bogus"); err == nil {
		t.Error("NamedWorkload(bogus) did not error")
	}
}

func TestEmitters(t *testing.T) {
	rs := Run(testSpec(0))

	var jsonBuf bytes.Buffer
	if err := rs.WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(decoded) != len(rs) {
		t.Fatalf("JSON rows = %d, want %d", len(decoded), len(rs))
	}
	if decoded[4]["mode"] != "more-data" {
		t.Errorf("row 4 mode = %v, want more-data", decoded[4]["mode"])
	}

	var csvBuf bytes.Buffer
	if err := rs.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != len(rs)+1 {
		t.Fatalf("CSV lines = %d, want header + %d rows", len(lines), len(rs))
	}
	if !strings.HasPrefix(lines[0], "campaign,index,mode,clients,seed") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestMultiBSSBaseHonoursClientsAxis: a multi-BSS base swept over
// clients must build every point with that point's client count in
// every BSS. The points share the base's BSS slice, so filling defaults
// into it in place would let the first point fix the count for all the
// others (and, with two workers, race on the shared elements).
func TestMultiBSSBaseHonoursClientsAxis(t *testing.T) {
	entry, ok := scenario.Lookup("2bss-overlap")
	if !ok {
		t.Fatal("2bss-overlap scenario not registered")
	}
	rows := Run(Spec{
		Name:    "2bss-clients",
		Base:    entry.Config(),
		Axes:    Axes{Clients: []int{1, 2}},
		Warmup:  100 * sim.Millisecond,
		Measure: 100 * sim.Millisecond,
		Workers: 2,
	})
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if want := 2 * r.Clients; len(r.PerClientMbps) != want {
			t.Errorf("clients=%d: %d per-client goodputs, want %d (two BSSs × %d)",
				r.Clients, len(r.PerClientMbps), want, r.Clients)
		}
	}
}

// TestTopologyReplacesBaseLayout: a topology replaces the base's whole
// layout, its geometry and its BSS list, and sets no client count. So
// every registered topology swept over a base with its own two-BSS
// spatial layout gives the rows it gives over the plain 802.11n star,
// and each row builds the client count it reports in each of the
// topology's BSSs.
func TestTopologyReplacesBaseLayout(t *testing.T) {
	topos := scenario.TopologyNames()
	sweep := func(base string) Results {
		entry, ok := scenario.Lookup(base)
		if !ok {
			t.Fatalf("%s scenario not registered", base)
		}
		return Run(Spec{
			Name:    base,
			Base:    entry.Config(),
			Axes:    Axes{Topologies: topos},
			Warmup:  100 * sim.Millisecond,
			Measure: 100 * sim.Millisecond,
		})
	}
	hidden, star := sweep("2bss-hidden"), sweep("ht150-stock")
	if len(hidden) != len(topos) || len(star) != len(topos) {
		t.Fatalf("%d and %d rows, want %d each", len(hidden), len(star), len(topos))
	}
	for i, topo := range topos {
		h, s := hidden[i], star[i]
		h.Campaign, s.Campaign = "", ""
		if !reflect.DeepEqual(h, s) {
			t.Errorf("topology %s: rows differ by base:\n 2bss-hidden: %+v\n ht150-stock: %+v", topo, h, s)
		}
		var cfg node.Config
		apply, _ := scenario.TopologyOption(topo)
		apply(&cfg)
		bsss := max(len(cfg.BSSs), 1)
		if want := s.Clients * bsss; len(s.PerClientMbps) != want || s.FlowsTotal != want {
			t.Errorf("topology %s: %d per-client goodputs and %d flows, want %d (%d clients × %d BSSs)",
				topo, len(s.PerClientMbps), s.FlowsTotal, want, s.Clients, bsss)
		}
	}
}
