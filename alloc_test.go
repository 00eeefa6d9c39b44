// Allocation-budget guards for the simulator's steady-state hot path.
// The PR 4 optimization pass (pooled timers, persistent Post
// callbacks, alloc-free header marshalling) brought the full 802.11n
// HACK scenario below two heap allocations per scheduler event, and
// the PR 5 MPDU/DataFrame pooling (released back to per-station
// freelists when their exchange resolves) took it below 1.5; these
// tests keep it there. A regression to per-event timer, closure, or
// per-MPDU wrapper allocation fails the budget. Since every packet is
// recycled through its network's packet.Pool and the MAC queues keep
// their arrays, a path that allocates or leaks one packet per segment
// fails it too.
//
// Budgets count mallocs per simulated second of the measurement
// window, not per scheduler event, so a change that removes events
// without removing allocations does not read as a regression.
package tcphack

import (
	"runtime"
	"runtime/debug"
	"testing"

	"tcphack/internal/node"
	"tcphack/internal/sim"
)

// steadyStateAllocBudget is the allowed mallocs per simulated second
// once the 2-client 802.11n HACK scenario is warm. Per scheduler event
// it was ≈5 to 6 before the hot-path pass, ≈1.9 after it, ≈1.45 with
// MPDU/DataFrame pooling, 1.079 just before packets were pooled, and
// 0.395 since (42902 mallocs over 108586 events in the 3 s window).
// The budget is the former 0.55 allocs/event at that event rate:
// 0.55 × 108586 / 3 s (measured 14301/s). What is left is mostly the
// HACK driver's per-ACK compressed buffers and hold slices.
const steadyStateAllocBudget = 19_907

// scaleAllocBudget is the allowed mallocs per simulated second in the
// 100-station grid scenario (see scaleNetwork in bench_test.go).
// Large-N steady state is cheaper than the 2-client TCP scenario — UDP
// sinks allocate no TCP state and the MSDU freelists recycle every
// data frame — so the gate is much tighter. Per scheduler event it was
// ≈0.11 with the wheel and MSDU freelists, and 0.036 since UDP
// datagrams come from the packet pool and the MAC queues keep their
// arrays (9179 mallocs over 258545 events in the 1 s window). The
// budget is the former 0.05 allocs/event at that event rate:
// 0.05 × 258545 / 1 s (measured 9179/s). CI runs this test as the hard
// allocation gate for the BenchmarkScale workload.
const scaleAllocBudget = 12_927

// windowMallocs runs n from its current time to until and returns the
// mallocs per simulated second of that window. Mallocs is a monotone
// total (GC does not reset it), and the simulation is single-goroutine,
// so the window delta is exact up to the test runtime's own background
// noise — which the wide window drowns out.
func windowMallocs(t *testing.T, n *node.Network, until sim.Time) (perSimSec float64, mallocs uint64) {
	t.Helper()
	start := n.Sched.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev0 := n.Sched.EventsFired()
	n.Run(until)
	runtime.ReadMemStats(&after)
	if n.Sched.EventsFired() == ev0 {
		t.Fatal("no events in the measurement window")
	}
	mallocs = after.Mallocs - before.Mallocs
	return float64(mallocs) / (until - start).Seconds(), mallocs
}

// TestScaleAllocBudget runs the 100-station grid scenario to steady
// state and asserts its allocation rate per
// simulated second stays under the large-N budget.
func TestScaleAllocBudget(t *testing.T) {
	n := scaleNetwork(100, nil)
	n.Run(scaleWarm)
	rate, mallocs := windowMallocs(t, n, scaleWarm+sim.Second)
	t.Logf("100-station steady state: %.0f allocs per simulated second (%d mallocs over 1 s)",
		rate, mallocs)
	if rate > scaleAllocBudget {
		t.Errorf("100-station allocation rate %.0f allocs/sim-s exceeds budget %d",
			rate, scaleAllocBudget)
	}
}

// warmDownloads builds the aggregated 802.11n HACK scenario with two
// downloading clients and tr on every layer, and runs it for 2 s:
// handshakes, buffer growth, pool fill.
func warmDownloads(tr Tracer) *node.Network {
	cfg := Scenario80211n(ModeMoreData, 2)
	cfg.Tracer = tr
	n := node.New(cfg)
	for ci := 0; ci < 2; ci++ {
		n.StartDownload(ci, 0, 0)
	}
	n.Run(2 * sim.Second)
	return n
}

// TestNopTracerAllocFree asserts that no probe site allocates: with
// NopTracer on every layer, where each probe site builds its event and
// calls Emit, a warm window of the 2-client HACK scenario (channel,
// MAC, HACK, ROHC and TCP probes) allocates exactly as much as the
// same window untraced. Emit itself is guarded by internal/trace's
// TestNopAllocFree. The windows run on one P with the collector off,
// so the runtime adds no mallocs of its own and the counts are exact.
func TestNopTracerAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mallocs [2]uint64
	for i, tr := range []Tracer{nil, NopTracer{}} {
		_, mallocs[i] = windowMallocs(t, warmDownloads(tr), 3*sim.Second)
	}
	if mallocs[1] != mallocs[0] {
		t.Errorf("NopTracer on every layer: %d mallocs over 1 s, untraced %d; want equal",
			mallocs[1], mallocs[0])
	}
}

// TestSteadyStateAllocBudget runs the aggregated 802.11n HACK scenario
// to steady state and asserts its allocation rate per simulated second
// stays under the budget.
func TestSteadyStateAllocBudget(t *testing.T) {
	n := warmDownloads(nil)
	rate, mallocs := windowMallocs(t, n, 5*sim.Second)
	t.Logf("steady state: %.0f allocs per simulated second (%d mallocs over 3 s)", rate, mallocs)
	if rate > steadyStateAllocBudget {
		t.Errorf("steady-state allocation rate %.0f allocs/sim-s exceeds budget %d",
			rate, steadyStateAllocBudget)
	}
}
