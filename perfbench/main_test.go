package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 100 samples: p90 has 10 beyond it, p99 only 1.
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90", got)
	}
	if got := tail(xs[:19]); got != median(xs[:19]) {
		t.Errorf("tail of 19 samples = %v, want the median %v", got, median(xs[:19]))
	}
}

func TestJain(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 3, 3, 3}, 1},
		{[]float64{4, 0, 0, 0}, 0.25},
		{[]float64{0, 0}, 0},
	} {
		if got := jain(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestInternalPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"tcphack/internal/mac.(*Station).transmit": "mac",
		"tcphack/internal/node.New.func3":          "node",
		"tcphack/internal/sim.(*wheel).pop":        "sim",
	} {
		if got, ok := internalPackage(fn); !ok || got != want {
			t.Errorf("internalPackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := internalPackage("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc is not an internal package")
	}
	if !isGCFrame("runtime.mallocgc") || !isGCFrame("runtime.gcBgMarkWorker") || isGCFrame("runtime.asyncPreempt") {
		t.Error("GC frame classification is wrong")
	}
}

// TestCPUShares profiles a small simulation and checks the decoded
// shares cover every layer and sum to 100 %.
func TestCPUShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	n := node.New(scenario.New(scenario.With80211n(), scenario.WithClients(2)))
	n.StartDownload(0, 0, 0)
	n.StartDownload(1, 0, 0)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		n.Run(sim.Duration(n.Sched.Now()) + 100*sim.Millisecond)
	}
	if err := stopProfile(f); err != nil {
		t.Fatal(err)
	}
	shares, cpu, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if cpu == 0 {
		t.Skip("no CPU samples taken")
	}
	var sum float64
	for _, l := range cpuLayers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("no share for layer %s", l)
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if shares["sim"]+shares["mac"]+shares["tcp"] == 0 {
		t.Errorf("no samples attributed to sim, mac or tcp: %v", shares)
	}
}
