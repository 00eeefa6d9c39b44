package tcphack

import (
	"reflect"
	"testing"
)

// TestRegistryMatchesConstructors: looking a scenario up by name must
// yield the same configuration as the equivalent NewScenario call.
func TestRegistryMatchesConstructors(t *testing.T) {
	cfg, ok := LookupScenario("ht150-moredata", WithClients(4))
	if !ok {
		t.Fatal("ht150-moredata not registered")
	}
	if want := NewScenario(With80211n(), WithMode(ModeMoreData), WithClients(4)); !reflect.DeepEqual(cfg, want) {
		t.Errorf("ht150-moredata != NewScenario: %+v vs %+v", cfg, want)
	}
	cfg, ok = LookupScenario("sora-stock")
	if !ok {
		t.Fatal("sora-stock not registered")
	}
	if want := NewScenario(WithSoRa(), WithMode(ModeOff), WithClients(1)); !reflect.DeepEqual(cfg, want) {
		t.Errorf("sora-stock != NewScenario: %+v vs %+v", cfg, want)
	}
}

// TestCampaignFacade drives a tiny sweep end-to-end through the public
// API: builder-composed base, two modes, parallel execution.
func TestCampaignFacade(t *testing.T) {
	results := RunCampaign(Campaign{
		Name:    "facade",
		Base:    NewScenario(With80211n()),
		Axes:    CampaignAxes{Modes: []Mode{ModeOff, ModeMoreData}},
		Warmup:  500 * Millisecond,
		Measure: 500 * Millisecond,
	})
	if len(results) != 2 {
		t.Fatalf("%d rows, want 2", len(results))
	}
	stock, hck := results[0], results[1]
	if stock.ModeName != "off" || hck.ModeName != "more-data" {
		t.Fatalf("row modes: %q, %q", stock.ModeName, hck.ModeName)
	}
	if stock.AggregateMbps <= 0 || hck.AggregateMbps <= 0 {
		t.Fatalf("no goodput: stock=%.1f hack=%.1f", stock.AggregateMbps, hck.AggregateMbps)
	}
	// The paper's headline result at a small scale: HACK beats stock.
	if hck.AggregateMbps <= stock.AggregateMbps {
		t.Errorf("HACK (%.1f Mbps) did not beat stock TCP (%.1f Mbps)",
			hck.AggregateMbps, stock.AggregateMbps)
	}
	if hck.DecompFailures != 0 {
		t.Errorf("decompression failures: %d", hck.DecompFailures)
	}
	if len(CampaignSeeds(5, 3)) != 3 || CampaignSeeds(5, 3)[2] != 7 {
		t.Errorf("CampaignSeeds(5,3) = %v", CampaignSeeds(5, 3))
	}
}
