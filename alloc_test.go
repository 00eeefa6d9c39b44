// Allocation-budget guards for the simulator's steady state. Every
// per-frame record has an owner that reuses it: packets their
// network's packet.Pool, MSDUs and MPDUs their station, transmissions
// the medium, the exchange record (with the station's one data frame
// and one BAR) its station, link-layer ACK frames and their payload
// buffers a freelist linked through the frames, held ACKs and their
// compressed bytes the HACK driver's per-peer lists, the reconstructed
// ACK list its decompressor, and SACK intervals the TCP lists they live
// in. A warm network therefore allocates nothing per frame, per packet
// or per event, and these tests hold it there: a path that allocates
// per frame fails its budget.
//
// Budgets count mallocs per simulated second of the measurement
// window, not per scheduler event, so a change that removes events
// without removing allocations does not read as a regression. Every
// window runs on one P with the collector off (exactWindow), so the
// runtime adds no mallocs of its own and the counts are exact. Each
// budget is the measured floor plus allocBudgetMargin.
package tcphack

import (
	"runtime"
	"runtime/debug"
	"testing"

	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// allocBudgetMargin is the mallocs per simulated second each budget
// allows over its measured floor. It absorbs a rare one-off growth (a
// freelist, map or queue reaching a new high-water mark) without
// hiding a per-frame allocation: the quietest window below, the
// 2-client one, carries ≈ 540 frames and several thousand TCP segments
// per simulated second, so one allocation per frame overshoots the
// margin tenfold.
const allocBudgetMargin = 50

// steadyStateAllocBudget is the allowed mallocs per simulated second
// once the 2-client 802.11n HACK scenario is warm. It was 14,301/s
// measured before transmissions, exchanges, ACK frames, held ACKs,
// compressed bytes, decompressed ACK lists and SACK intervals were
// recycled (mostly the HACK driver's per-ACK buffers and hold slices),
// and 0/s since.
const steadyStateAllocBudget = 0 + allocBudgetMargin

// scaleAllocBudget is the allowed mallocs per simulated second in the
// 100-station grid scenario (see scaleNetwork in bench_test.go). It was
// 9,179/s measured before transmissions, exchanges and ACK frames were
// recycled, and 1/s since. CI runs this test as the allocation gate for
// the BenchmarkScale workload.
const scaleAllocBudget = 1 + allocBudgetMargin

// lossyAllocBudget is the allowed mallocs per simulated second in the
// 4-client MORE-DATA scenario at 5 % uniform loss: the BAR, retry,
// resync and IR-refresh paths that a lossless window never takes. Its
// measured floor, 2/s, is freelist and reorder-map growth.
const lossyAllocBudget = 2 + allocBudgetMargin

// hiddenAllocBudget is the allowed mallocs per simulated second on the
// 2bss-hidden spatial topology with MORE-DATA: the spatial medium's
// per-receiver interference state, SINR capture and hidden-terminal
// collisions. Its measured floor, 2/s, is MSDU and MPDU freelist
// growth while the hidden BSSs' queues build up.
const hiddenAllocBudget = 2 + allocBudgetMargin

// windowMallocs runs n from its current time to until and returns the
// mallocs per simulated second of that window. Mallocs is a monotone
// total (GC does not reset it), and the simulation is single-goroutine,
// so under exactWindow the delta counts the simulation's allocations
// only.
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

// exactWindow runs the rest of the calling test on one P with the
// collector off, so that the runtime adds no mallocs of its own to a
// window; the returned function restores both settings.
func exactWindow() (restore func()) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	}
}

// checkWindow measures n's window up to until and fails the test when
// its mallocs per simulated second exceed budget.
func checkWindow(t *testing.T, name string, n *node.Network, until sim.Time, budget float64) {
	t.Helper()
	start := n.Sched.Now()
	tx0 := n.Medium.TxCount
	rate, mallocs := windowMallocs(t, n, until)
	frames := float64(n.Medium.TxCount-tx0) / (until - start).Seconds()
	t.Logf("%s: %.0f allocs per simulated second (%d mallocs over %v; %.0f frames/s)",
		name, rate, mallocs, until-start, frames)
	if rate > budget {
		t.Errorf("%s: allocation rate %.0f allocs/sim-s exceeds budget %.0f", name, rate, budget)
	}
}

// TestScaleAllocBudget runs the 100-station grid scenario to steady
// state and asserts its allocation rate per simulated second stays
// under the large-N budget.
func TestScaleAllocBudget(t *testing.T) {
	defer exactWindow()()
	n := scaleNetwork(100, nil)
	n.Run(scaleWarm)
	checkWindow(t, "100-station grid", n, scaleWarm+sim.Second, scaleAllocBudget)
}

// warmDownloads builds the aggregated 802.11n HACK scenario with two
// downloading clients and tr on every layer, and runs it for 2 s:
// handshakes, buffer growth, pool fill.
func warmDownloads(tr Tracer) *node.Network {
	cfg := NewScenario(With80211n(), WithMode(ModeMoreData), WithClients(2))
	cfg.Tracer = tr
	n := node.New(cfg)
	for ci := 0; ci < 2; ci++ {
		n.StartDownload(ci, 0, 0)
	}
	n.Run(2 * sim.Second)
	return n
}

// TestNopTracerAllocFree asserts that no probe site allocates: with
// trace.Nop on every layer, where each probe site builds its event and
// calls Emit, a warm window of the 2-client HACK scenario (channel,
// MAC, HACK, ROHC and TCP probes) allocates exactly as much as the
// same window untraced. Emit itself is guarded by internal/trace's
// TestNopAllocFree.
func TestNopTracerAllocFree(t *testing.T) {
	defer exactWindow()()
	var mallocs [2]uint64
	for i, tr := range []Tracer{nil, trace.Nop{}} {
		_, mallocs[i] = windowMallocs(t, warmDownloads(tr), 3*sim.Second)
	}
	if mallocs[1] != mallocs[0] {
		t.Errorf("trace.Nop on every layer: %d mallocs over 1 s, untraced %d; want equal",
			mallocs[1], mallocs[0])
	}
}

// TestSteadyStateAllocBudget runs the aggregated 802.11n HACK scenario
// to steady state and asserts its allocation rate per simulated second
// stays under the budget.
func TestSteadyStateAllocBudget(t *testing.T) {
	defer exactWindow()()
	checkWindow(t, "2-client HACK", warmDownloads(nil), 5*sim.Second, steadyStateAllocBudget)
}

// warmScenario builds cfg, starts a download to every client and runs
// it for 2 s.
func warmScenario(cfg node.Config) *node.Network {
	n := node.New(cfg)
	for ci := range n.Clients {
		n.StartDownload(ci, 0, 0)
	}
	n.Run(2 * sim.Second)
	return n
}

// TestLossyAllocBudget covers the recovery paths: 4 MORE-DATA clients
// at 5 % uniform loss send BARs, retry MPDUs, resync the HACK chain and
// reopen it with IR refreshes throughout the window.
func TestLossyAllocBudget(t *testing.T) {
	defer exactWindow()()
	n := warmScenario(scenario.New(scenario.With80211n(), scenario.WithMode(hack.ModeMoreData),
		scenario.WithClients(4), scenario.WithUniformLoss(0.05)))
	recovery := func() (bars, resyncs uint64) {
		for _, c := range n.Clients {
			resyncs += c.Driver.Resyncs
		}
		return n.AP.MAC.Stats.BARsSent, resyncs
	}
	bars, resyncs := recovery()
	checkWindow(t, "4-client MORE-DATA at 5% loss", n, 5*sim.Second, lossyAllocBudget)
	if b, r := recovery(); b == bars || r == resyncs {
		t.Errorf("window sent %d BARs and resynced %d times; want both on the recovery path", b-bars, r-resyncs)
	}
}

// TestHiddenAllocBudget covers the spatial medium under contention:
// two mutually hidden BSSs whose downlinks collide at their clients.
func TestHiddenAllocBudget(t *testing.T) {
	defer exactWindow()()
	e, ok := scenario.Lookup("2bss-hidden")
	if !ok {
		t.Fatal("2bss-hidden scenario not registered")
	}
	n := warmScenario(e.Config(scenario.WithMode(hack.ModeMoreData)))
	checkWindow(t, "2bss-hidden MORE-DATA", n, 5*sim.Second, hiddenAllocBudget)
}
