package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tcphack"
)

func TestGroupInt(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "0"}, {7, "7"}, {999, "999"}, {1000, "1,000"},
		{12345, "12,345"}, {123456, "123,456"}, {1234567, "1,234,567"},
		{1_000_000_000, "1,000,000,000"}, {-42, "-42"},
	} {
		if got := groupInt(tc.n); got != tc.want {
			t.Errorf("groupInt(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestGoldenBaselines runs the three committed golden sweeps through
// runSweep, the function `hackbench -sweep … -baseline` calls, and
// fails unless each comparison against its testdata/ci-baseline*.json
// file is clean. The simulation is seed-deterministic, so any change
// in goodput, retries, ROHC failures or airtime beyond the default
// tolerances fails here. To regenerate a golden after an intended
// behaviour change, run the same sweep with -save-baseline, e.g.
//
//	hackbench -sweep sora-stock -sweep-modes off,more-data -runs 2 \
//	    -warmup 500ms -measure 500ms -save-baseline testdata/ci-baseline.json
func TestGoldenBaselines(t *testing.T) {
	o := tcphack.ExperimentOptions{
		Warmup:  500 * tcphack.Millisecond,
		Measure: 500 * tcphack.Millisecond,
		Runs:    2,
		Seed:    1,
	}
	for _, tc := range []struct {
		name string
		sw   sweepConfig
	}{
		// The 802.11a SoRa testbed model, stock and MORE-DATA.
		{"ci-baseline", sweepConfig{scenario: "sora-stock", modes: "off,more-data"}},
		// The aggregated 802.11n scenario at loss 0 and 0.05: the HACK
		// recovery path (BAR give-ups, resync, IR reopen), whose
		// golden records zero ROHC decompression failures.
		{"ci-baseline-lossy", sweepConfig{scenario: "ht150-stock", modes: "off,more-data", loss: "0,0.05"}},
		// Two overlapping BSSs on the spatial PHY with the airtime
		// ledger: the per-BSS airtime_bss<k>_efficiency extras.
		{"ci-baseline-2bss", sweepConfig{scenario: "ht150-stock", modes: "off,more-data",
			topologies: "2bss-overlap", airtime: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.sw
			sw.format = "text"
			sw.baseline = filepath.Join("..", "..", "testdata", tc.name+".json")
			var out bytes.Buffer
			code, err := runSweep(&out, sw, o)
			if err != nil || code != 0 {
				t.Errorf("exit code %d, err %v; rows and comparison:\n%s", code, err, out.String())
			}
		})
	}
}

// TestDryRunRejectsOversizedGrid: `hackbench -dry-run -sweep ht150-stock
// -runs 100000` fails from the axis lengths alone, before a point is
// enumerated or fingerprinted. runDryRun returns the bound's error,
// which main reports with exit status 2.
func TestDryRunRejectsOversizedGrid(t *testing.T) {
	o := tcphack.ExperimentOptions{Runs: 100000, Seed: 1}
	code, err := runDryRun(sweepConfig{scenario: "ht150-stock", format: "text"}, o, "", 0)
	if err == nil || !strings.Contains(err.Error(), "more than 16384 points") {
		t.Errorf("dry run of 100000 seeds: code %d, err %v; want the grid bound's error", code, err)
	}
}
