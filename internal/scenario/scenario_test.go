package scenario

import (
	"reflect"
	"sort"
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// TestWith80211nMatchesLegacyConstructor pins the preset to the exact
// configuration the old Scenario80211n constructor produced,
// field-for-field.
func TestWith80211nMatchesLegacyConstructor(t *testing.T) {
	got := New(With80211n(), WithMode(hack.ModeMoreData), WithClients(4))
	want := node.Config{
		Seed:         1,
		Mode:         hack.ModeMoreData,
		DataRate:     phy.HTRate(7, 1),
		AckRate:      phy.RateA24,
		Aggregation:  true,
		TXOPLimit:    4 * sim.Millisecond,
		Clients:      4,
		APQueueLimit: 126,
		WireRateKbps: 500_000,
		WireDelay:    sim.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

// TestWithSoRaMatchesLegacyConstructor pins the preset to the old
// ScenarioSoRa constructor, field-for-field.
func TestWithSoRaMatchesLegacyConstructor(t *testing.T) {
	got := New(WithSoRa(), WithMode(hack.ModeOff), WithClients(2))
	want := node.Config{
		Seed:            1,
		Mode:            hack.ModeOff,
		DataRate:        phy.RateA54,
		Clients:         2,
		AckTurnaround:   37 * sim.Microsecond,
		AckTimeoutSlack: 80 * sim.Microsecond,
		APQueueLimit:    126,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

// TestOptionOrder: later options override earlier ones, so presets can
// layer (ht150 base specialized to SoRa, a different seed, etc.).
func TestOptionOrder(t *testing.T) {
	cfg := New(With80211n(), WithSoRa(), WithSeed(42))
	if cfg.DataRate != phy.RateA54 {
		t.Errorf("later preset did not win: rate %v", cfg.DataRate)
	}
	if cfg.WireRateKbps != 0 || cfg.Aggregation {
		t.Errorf("WithSoRa did not clear 802.11n fields: %+v", cfg)
	}
	if cfg.Seed != 42 {
		t.Errorf("seed %d, want 42", cfg.Seed)
	}

	cfg = New(WithSeed(7), WithSeed(8))
	if cfg.Seed != 8 {
		t.Errorf("seed %d, want last-wins 8", cfg.Seed)
	}
}

func TestPerAxisOptions(t *testing.T) {
	cfg := New(
		With80211n(),
		WithRate(phy.HTRate(3, 2)),
		WithUniformLoss(0.05),
		WithWire(100_000, 2*sim.Millisecond),
		WithConfig(func(c *node.Config) { c.APQueueLimit = 4 }),
	)
	if cfg.DataRate != phy.HTRate(3, 2) || !cfg.AckRate.IsZero() {
		t.Errorf("rates: %v / %v", cfg.DataRate, cfg.AckRate)
	}
	fl, ok := cfg.Err.(*channel.FixedLoss)
	if !ok || fl.Default != 0.05 {
		t.Errorf("uniform loss not installed: %#v", cfg.Err)
	}
	if cfg.WireRateKbps != 100_000 || cfg.WireDelay != 2*sim.Millisecond {
		t.Errorf("wire: %d/%v", cfg.WireRateKbps, cfg.WireDelay)
	}
	if cfg.APQueueLimit != 4 {
		t.Error("WithConfig escape hatch not applied")
	}

	cfg = New(WithSNR(17))
	em, ok := cfg.Err.(*channel.SNRModel)
	if !ok || em.SNRDB != 17 {
		t.Errorf("fixed SNR not installed: %#v", cfg.Err)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	var names []string
	for _, e := range all {
		names = append(names, e.Name)
	}
	if len(names) < 8 {
		t.Fatalf("only %d registered scenarios: %v", len(names), names)
	}
	for _, want := range []string{"ht150-stock", "ht150-moredata", "sora-stock", "sora-moredata"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("missing built-in scenario %q (have %v)", want, names)
		}
	}
	// Rate-adaptive variants carry the adapter spec.
	for _, want := range []string{"ht150-moredata-minstrel", "ht150-moredata-ideal",
		"ht150-stock-minstrel", "ht150-stock-ideal"} {
		e, ok := Lookup(want)
		if !ok {
			t.Errorf("missing rate-adaptive scenario %q", want)
			continue
		}
		cfg := e.Config()
		if cfg.RateAdapter == "" || cfg.RateAdapter == "fixed" {
			t.Errorf("%s: adapter spec not set (%q)", want, cfg.RateAdapter)
		}
	}
	if cfg := New(With80211n(), WithRateAdapter("minstrel")); cfg.RateAdapter != "minstrel" {
		t.Errorf("WithRateAdapter not applied: %q", cfg.RateAdapter)
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("lookup of unknown name succeeded")
	}

	e, _ := Lookup("ht150-moredata")
	cfg := e.Config(WithClients(10), WithSeed(3))
	if cfg.Mode != hack.ModeMoreData || !cfg.Aggregation {
		t.Errorf("ht150-moredata config wrong: %+v", cfg)
	}
	if cfg.Clients != 10 || cfg.Seed != 3 {
		t.Errorf("extra options not applied: clients=%d seed=%d", cfg.Clients, cfg.Seed)
	}
	// Extra options must not leak back into the registered entry.
	again := e.Config()
	if again.Clients != 1 || again.Seed != 1 {
		t.Errorf("registry entry mutated by extra options: %+v", again)
	}

	// All() is sorted by name.
	if !sort.StringsAreSorted(names) {
		t.Errorf("All() not sorted by name: %v", names)
	}
	for _, e := range all {
		if e.Desc == "" {
			t.Errorf("%q has no description", e.Name)
		}
	}

	Register("test-custom", "test entry", WithSoRa(), WithClients(5))
	defer func() {
		regMu.Lock()
		delete(registry, "test-custom")
		regMu.Unlock()
	}()
	e, ok := Lookup("test-custom")
	if !ok {
		t.Fatal("custom registration not found")
	}
	if cfg := e.Config(); cfg.Clients != 5 || cfg.DataRate != phy.RateA54 {
		t.Errorf("custom entry config: %+v", cfg)
	}
}

// TestWorkloadEntries: the upload and mixed 802.11n scenarios must be
// registered with their workload kinds, and WorkloadOf must expose
// them (empty for download scenarios and unknown names).
func TestWorkloadEntries(t *testing.T) {
	for name, want := range map[string]string{
		"ht150-upload": "upload",
		"ht150-mixed":  "mixed",
	} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if e.Workload != want {
			t.Errorf("%s workload = %q, want %q", name, e.Workload, want)
		}
		if got := WorkloadOf(name); got != want {
			t.Errorf("WorkloadOf(%s) = %q, want %q", name, got, want)
		}
		cfg := e.Config()
		if !cfg.Aggregation || cfg.Mode != hack.ModeOff {
			t.Errorf("%s config: want stock-mode 802.11n preset, got %+v", name, cfg)
		}
	}
	if got := WorkloadOf("ht150-moredata"); got != "" {
		t.Errorf("WorkloadOf(ht150-moredata) = %q, want empty", got)
	}
	if got := WorkloadOf("no-such-scenario"); got != "" {
		t.Errorf("WorkloadOf(unknown) = %q, want empty", got)
	}
}
