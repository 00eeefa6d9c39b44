package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"tcphack/internal/sim"
)

// testWireSpec is the wire form of the determinism grid: the sora-stock
// registry scenario swept over 2 modes × 2 seeds = 4 points.
func testWireSpec() WireSpec {
	return WireSpec{
		Name:     "wire-test",
		Scenario: "sora-stock",
		Axes: WireAxes{
			Modes: []string{"off", "more-data"},
			Seeds: []int64{1, 2},
		},
		Warmup:  100 * sim.Millisecond,
		Measure: 100 * sim.Millisecond,
	}
}

// TestWireSpecRoundTrip: a spec that crosses a process boundary as JSON
// must materialize into a campaign whose rows are identical to the
// original's — the distributed layer's determinism foundation.
func TestWireSpecRoundTrip(t *testing.T) {
	w := testWireSpec()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, back) {
		t.Fatalf("wire spec not JSON-stable:\n sent: %+v\n got:  %+v", w, back)
	}

	orig, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := back.Spec()
	if err != nil {
		t.Fatal(err)
	}
	a, b := Run(orig), Run(remote)
	if len(a) != 4 {
		t.Fatalf("%d rows, want 4", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rows diverged across the wire round trip")
	}
}

// TestWireSpecValidation: every vocabulary error must surface at
// materialization, not as a worker crash.
func TestWireSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*WireSpec)
	}{
		{"unknown scenario", func(w *WireSpec) { w.Scenario = "no-such-scenario" }},
		{"bad mode", func(w *WireSpec) { w.Axes.Modes = []string{"bogus"} }},
		{"bad rate", func(w *WireSpec) { w.Axes.Rates = []string{"z99"} }},
		{"bad adapter", func(w *WireSpec) { w.Axes.Adapters = []string{"telepathy"} }},
		{"bad workload", func(w *WireSpec) { w.Workload = "scatter" }},
	}
	for _, tc := range cases {
		w := testWireSpec()
		tc.mutate(&w)
		if _, err := w.Spec(); err == nil {
			t.Errorf("%s: Spec() accepted %+v", tc.name, w)
		}
	}
}

// TestWireSpecRejectsOutOfRange: a value the campaign cannot simulate
// as labelled fails materialization instead of producing a wrong row.
func TestWireSpecRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*WireSpec)
	}{
		{"zero clients", func(w *WireSpec) { w.Axes.Clients = []int{1, 0} }},
		{"negative clients", func(w *WireSpec) { w.Axes.Clients = []int{-1} }},
		{"negative loss", func(w *WireSpec) { w.Axes.Loss = []float64{-0.01} }},
		{"loss of one", func(w *WireSpec) { w.Axes.Loss = []float64{1} }},
		{"loss above one", func(w *WireSpec) { w.Axes.Loss = []float64{0, 1.5} }},
		{"NaN loss", func(w *WireSpec) { w.Axes.Loss = []float64{math.NaN()} }},
		{"infinite loss", func(w *WireSpec) { w.Axes.Loss = []float64{math.Inf(1)} }},
		{"negative warmup", func(w *WireSpec) { w.Warmup = -sim.Millisecond }},
		{"negative measure", func(w *WireSpec) { w.Measure = -1 }},
		{"negative duration", func(w *WireSpec) { w.Duration = -sim.Second }},
	} {
		w := testWireSpec()
		tc.mutate(&w)
		if _, err := w.Spec(); err == nil {
			t.Errorf("%s: Spec() accepted %+v", tc.name, w)
		}
	}
	w := testWireSpec()
	w.Axes.Clients = []int{1, 10}
	w.Axes.Loss = []float64{0, 0.999}
	if _, err := w.Spec(); err != nil {
		t.Errorf("in-range axes rejected: %v", err)
	}
}

// TestWireSpecGridBound: Spec() accepts a grid of exactly
// maxWirePoints points and rejects one point more, from the axis
// lengths alone.
func TestWireSpecGridBound(t *testing.T) {
	w := testWireSpec() // 2 modes
	w.Axes.Seeds = Seeds(1, maxWirePoints/2)
	if _, err := w.Spec(); err != nil {
		t.Errorf("grid of %d points rejected: %v", maxWirePoints, err)
	}
	w.Axes.Seeds = Seeds(1, maxWirePoints/2+1)
	if _, err := w.Spec(); err == nil || !strings.Contains(err.Error(), "more than 16384 points") {
		t.Errorf("grid of %d points: err %v, want the bound", maxWirePoints+2, err)
	}
	// Eight axes of 4 values each span 65536 points; the bound trips
	// on their lengths before any value is parsed.
	four := []string{"a", "b", "c", "d"}
	big := WireSpec{Scenario: "sora-stock", Axes: WireAxes{
		Modes: four, Clients: []int{1, 2, 3, 4}, Seeds: Seeds(1, 4), Rates: four,
		Adapters: four, Loss: []float64{0, 0, 0, 0}, SNRsDB: []float64{1, 2, 3, 4}, Topologies: four,
	}}
	if _, err := big.Spec(); err == nil || !strings.Contains(err.Error(), "more than 16384 points") {
		t.Errorf("65536-point grid: err %v, want the bound", err)
	}
}

// FuzzWireSpec: any JSON a daemon or CLI can receive as a wire spec
// either fails materialization or yields a grid whose every point
// simulates what it is labelled with — never a panic.
func FuzzWireSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var w WireSpec
		if json.Unmarshal(in, &w) != nil {
			return
		}
		spec, err := w.Spec()
		if err != nil {
			return
		}
		// An accepted grid is the product of the axis lengths, at most
		// maxWirePoints.
		a := w.Axes
		size := 1
		for _, n := range []int{len(a.Modes), len(a.Clients), len(a.Seeds), len(a.Rates),
			len(a.Adapters), len(a.Loss), len(a.SNRsDB), len(a.Topologies)} {
			size *= max(n, 1)
		}
		if size > maxWirePoints {
			t.Fatalf("accepted a grid of %d points, over the %d bound", size, maxWirePoints)
		}
		pts := spec.Points()
		if len(pts) != size {
			t.Fatalf("%d points, want %d", len(pts), size)
		}
		for _, pt := range pts {
			if pt.Clients < 1 {
				t.Fatalf("point %d: clients %d", pt.Index, pt.Clients)
			}
			if !(pt.LossPct >= 0 && pt.LossPct < 100) {
				t.Fatalf("point %d: loss %v%%", pt.Index, pt.LossPct)
			}
		}
	})
}

// TestWireSpecWorkloadResolution: the explicit field wins; otherwise
// the scenario registry entry's workload applies.
func TestWireSpecWorkloadResolution(t *testing.T) {
	w := WireSpec{Scenario: "ht150-upload"}
	if got := w.ResolvedWorkload(); got != "upload" {
		t.Errorf("registry workload = %q, want upload", got)
	}
	w.Workload = "mixed"
	if got := w.ResolvedWorkload(); got != "mixed" {
		t.Errorf("explicit workload = %q, want mixed", got)
	}
	if w2 := testWireSpec(); w2.ResolvedWorkload() != "" {
		t.Errorf("sora-stock workload = %q, want default", w2.ResolvedWorkload())
	}
}

// TestFingerprintFields: the memoization identity must include what
// determines a row (axis values, windows, the swept-axis set) and
// exclude what does not (the display name).
func TestFingerprintFields(t *testing.T) {
	w := testWireSpec()
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	pt := spec.Points()[0]
	fields := w.FingerprintFields(pt)

	renamed := w
	renamed.Name = "same-sweep-other-label"
	if !reflect.DeepEqual(fields, renamed.FingerprintFields(pt)) {
		t.Error("display name leaked into the fingerprint fields")
	}

	if got := fields["swept"]; got != "mode,seed" {
		t.Errorf("swept = %q, want mode,seed", got)
	}
	// Sweeping an extra axis changes the identity even where the axis
	// value would be equal (axis materialization has side effects, e.g.
	// WithRate resets the LL ACK rate).
	withRate := w
	withRate.Axes.Rates = []string{"a54"}
	spec2, err := withRate.Spec()
	if err != nil {
		t.Fatal(err)
	}
	f2 := withRate.FingerprintFields(spec2.Points()[0])
	if f2["swept"] == fields["swept"] {
		t.Error("adding a rate axis did not change the swept set")
	}

	longer := w
	longer.Measure = 200 * sim.Millisecond
	if reflect.DeepEqual(fields, longer.FingerprintFields(pt)) {
		t.Error("measurement window not part of the fingerprint fields")
	}
}

// TestRunPoints: the shard primitive must reproduce exactly the rows a
// full Run puts at those indexes, honor cancellation between points,
// and reject out-of-range indexes.
func TestRunPoints(t *testing.T) {
	w := testWireSpec()
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	full := Run(spec)

	rows, err := RunPoints(context.Background(), spec, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if !reflect.DeepEqual(rows[0], full[2]) || !reflect.DeepEqual(rows[1], full[0]) {
		t.Error("shard rows differ from the full run's rows at the same indexes")
	}

	if _, err := RunPoints(context.Background(), spec, []int{99}); err == nil {
		t.Error("out-of-range index accepted")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err = RunPoints(cancelled, spec, []int{0, 1})
	if err != context.Canceled || len(rows) != 0 {
		t.Errorf("cancelled RunPoints = %d rows, err %v; want 0 rows, context.Canceled", len(rows), err)
	}
}

// TestProgressUnderCancellation is the regression test for the
// progress-callback contract when a sweep is cancelled: the unrun tail
// is accounted as Skipped rows through the same callback, and the
// reported counts must stay strictly increasing, never exceed the
// total, and reach it — previously the worker-side and tail-side
// accounting could double-count a row and overshoot.
func TestProgressUnderCancellation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		s := testSpec(workers)
		var dones []int
		s.Progress = func(done, total int) {
			if done == 1 {
				cancel()
			}
			if total != 8 {
				t.Errorf("workers=%d: total = %d, want 8", workers, total)
			}
			dones = append(dones, done)
		}
		if _, err := RunContext(ctx, s); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(dones) == 0 {
			t.Fatalf("workers=%d: no progress calls", workers)
		}
		last := 0
		for i, d := range dones {
			if d <= last {
				t.Fatalf("workers=%d: call %d reported done=%d after %d (not strictly increasing)",
					workers, i, d, last)
			}
			if d > 8 {
				t.Fatalf("workers=%d: call %d reported done=%d > total", workers, i, d)
			}
			last = d
		}
		if last != 8 {
			t.Errorf("workers=%d: final progress %d, want 8 (cancelled tail must be reported)", workers, last)
		}
	}
}

// TestWireSpecRowsSurviveResultsJSON: a Result produced from a wire
// spec must survive the campaign JSON emitters bit-for-bit — what the
// distributed layer relies on when rows cross HTTP.
func TestWireSpecRowsSurviveResultsJSON(t *testing.T) {
	w := testWireSpec()
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunPoints(context.Background(), spec, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rows); err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	// Mode/Rate are json:"-" and the sweep flags are unexported: the
	// decoded row must still agree on every serialized field.
	if back[0].Campaign != rows[0].Campaign || back[0].ModeName != rows[0].ModeName ||
		back[0].RateKbps != rows[0].RateKbps ||
		back[0].AggregateMbps != rows[0].AggregateMbps ||
		!reflect.DeepEqual(back[0].PerClientMbps, rows[0].PerClientMbps) {
		t.Errorf("row changed across JSON:\n sent: %+v\n got:  %+v", rows[0], back[0])
	}
}
