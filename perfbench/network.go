package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// netWorkload is a long-lived network: built with node.New, warmed up
// during set-up, then advanced through a timed window in equal chunks.
type netWorkload struct {
	name string
	// seeds returns the networks to run in turn for a --seed.
	seeds func(seed int64) []int64
	// rebuilds is how often set-up runs per seed; the last network
	// built is the one measured.
	rebuilds int
	config   func(seed int64) node.Config
	start    func(n *node.Network)
	// warmup is long enough that lazy work (power matrix, MSDU
	// freelists, TCP handshakes and slow start) lands in set-up.
	warmup sim.Duration
	chunk  sim.Duration
	// refRate is the simulated seconds per host second the window ran
	// at on the reference host (2 vCPUs); it sizes the window so a run
	// measures about --seconds.
	refRate float64
	// offeredMbps bounds the goodput the clients can receive (0: no
	// bound, TCP adapts to the channel).
	offeredMbps float64
}

// Dense-scalar: 1000 stations on the scalar channel's 2 m grid, each
// offered 80 kb/s of UDP with the per-station start stagger of the
// repository's BenchmarkScale.
var denseScalar = netWorkload{
	name:     "dense-scalar",
	seeds:    func(s int64) []int64 { return []int64{s} },
	rebuilds: 9,
	config: func(seed int64) node.Config {
		return scenario.New(scenario.With80211n(), scenario.WithGrid(denseStations, 2), scenario.WithSeed(seed))
	},
	start: func(n *node.Network) {
		for ci := range n.Clients {
			n.StartUDPDownload(ci, denseKbps, 1500, sim.Duration(ci)*37*sim.Microsecond)
		}
	},
	warmup:      500 * sim.Millisecond,
	chunk:       2 * sim.Second,
	refRate:     3.2,
	offeredMbps: denseStations * denseKbps / 1000.0,
}

const (
	denseStations = 1000
	denseKbps     = 80
)

// Spatial-floor: nine BSSs on a 3×3 grid of APs 40 m apart under the
// spatial PHY, ten MORE-DATA TCP-download clients each on a 10 m
// circle around their AP, flows started 50 ms apart. Three seeds run in
// turn because the decompression failures it shows are intermittent.
var spatialFloor = netWorkload{
	name:     "spatial-floor",
	seeds:    func(s int64) []int64 { return []int64{s, s + 1, s + 2} },
	rebuilds: 2,
	config: func(seed int64) node.Config {
		bss := make([]node.BSSSpec, 9)
		for i := range bss {
			bss[i] = node.BSSSpec{APPos: channel.Pos{X: 40 * float64(i%3), Y: 40 * float64(i/3)}, Clients: 10}
		}
		return scenario.New(scenario.With80211n(), scenario.WithPathLoss(), scenario.WithBSSLayout(bss...),
			scenario.WithMode(hack.ModeMoreData), scenario.WithSeed(seed))
	},
	start: func(n *node.Network) {
		for ci := range n.Clients {
			n.StartDownload(ci, 0, sim.Duration(ci)*50*sim.Millisecond)
		}
	},
	warmup:  6 * sim.Second,
	chunk:   10 * sim.Second,
	refRate: 18,
}

func runDenseScalar(opt options) (*outcome, error)  { return runNetwork(denseScalar, opt) }
func runSpatialFloor(opt options) (*outcome, error) { return runNetwork(spatialFloor, opt) }

// netPass is one pass over a network workload's seeds.
type netPass struct {
	setups, builds, rates []float64 // seconds, seconds, sim s per host s
	windowWall            time.Duration
	windowSim             sim.Duration
	mallocs, bytes, gcs   uint64
	heapLiveMB            float64
	cnt, total            counts      // window deltas; totals since time 0
	cells                 [][]float64 // per-BSS client goodputs in Mbps, per seed
	tcpMbps, nodeMbps     []float64   // per seed
	flows, failed, silent int
	decompBSS             int
	airData, airBusy      sim.Duration
	conserved             bool
	digest                digester
}

// runNetPass builds, warms up and measures each seed's network. With a
// recorder it also attaches an airtime ledger, records spans and
// writes a CPU profile of each window to profiles.
func runNetPass(w netWorkload, opt options, rec *recorder, profiles []string) (*netPass, error) {
	seeds := w.seeds(opt.seed)
	chunks := int(math.Max(1, math.Round(float64(opt.seconds)*w.refRate/float64(len(seeds))/w.chunk.Seconds())))
	p := &netPass{conserved: true}
	root := rec.open("pass", 0)
	defer rec.end(root)
	rebuilds := w.rebuilds
	if rec != nil {
		rebuilds = 1 // set-up is timed by the untraced pass
	}
	for si, seed := range seeds {
		var n *node.Network
		var ledger *trace.AirtimeLedger
		for k := 0; k < rebuilds; k++ {
			n, ledger = nil, nil
			runtime.GC()
			setup := rec.open("setup", root)
			t0 := time.Now()
			cfg := w.config(seed)
			if rec != nil {
				ledger = trace.NewAirtimeLedger()
				scenario.WithTracer(ledger)(&cfg)
			}
			tb := time.Now()
			n = node.New(cfg)
			built := time.Now()
			rec.add("node.New", "main", setup, tb, built)
			w.start(n)
			tw := time.Now()
			n.Run(w.warmup)
			done := time.Now()
			rec.add("Network.Run warmup", "main", setup, tw, done)
			rec.end(setup)
			p.builds = append(p.builds, built.Sub(tb).Seconds())
			p.setups = append(p.setups, done.Sub(t0).Seconds())
		}

		now := n.Sched.Now()
		for _, c := range n.Clients {
			c.Goodput.MarkWindow(now)
		}
		for _, f := range n.Flows {
			f.Goodput.MarkWindow(now)
		}
		c0 := snapshot(n)
		var air0 trace.AirtimeReport
		if ledger != nil {
			air0 = ledger.Snapshot(now)
		}
		var prof *os.File
		if rec != nil {
			var err error
			if prof, err = startProfile(profiles[si]); err != nil {
				return nil, err
			}
		}
		window := rec.open("window", root)
		m0 := memStats()
		t0 := time.Now()
		for i := 1; i <= chunks; i++ {
			tc := time.Now()
			n.Run(w.warmup + sim.Duration(i)*w.chunk)
			end := time.Now()
			rec.add("Network.Run", "main", window, tc, end)
			p.rates = append(p.rates, w.chunk.Seconds()/end.Sub(tc).Seconds())
		}
		p.windowWall += time.Since(t0)
		m1 := memStats()
		rec.end(window)
		if prof != nil {
			if err := stopProfile(prof); err != nil {
				return nil, err
			}
		}
		p.windowSim += sim.Duration(chunks) * w.chunk
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.bytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += uint64(m1.NumGC - m0.NumGC)

		now = n.Sched.Now()
		end := snapshot(n)
		p.total.add(end)
		cnt := end.sub(c0)
		p.cnt.add(cnt)
		cnt.digest(&p.digest, fmt.Sprintf("seed %d window", seed))
		if ledger != nil {
			air1 := ledger.Snapshot(now)
			p.conserved = p.conserved && air0.Conserved() && air1.Conserved()
			p.airData += air1.Total.Data - air0.Total.Data
			p.airBusy += air1.Busy() - air0.Busy()
		}

		var tcpMbps, nodeMbps float64
		for _, f := range n.Flows {
			tcpMbps += f.Goodput.WindowMbps(now)
		}
		for _, b := range n.BSSes {
			// A BSS's failures, over the whole run, fail all its flows.
			failures := b.AP.Driver.DecompFailures
			for _, c := range b.Clients {
				failures += c.Driver.DecompFailures
			}
			if failures > 0 {
				p.decompBSS++
			}
			cell := make([]float64, len(b.Clients))
			for i, c := range b.Clients {
				mbps := c.Goodput.WindowMbps(now)
				cell[i] = mbps
				nodeMbps += mbps
				p.flows++
				if mbps == 0 {
					p.silent++
				}
				if mbps == 0 || failures > 0 {
					p.failed++
				}
			}
			p.cells = append(p.cells, cell)
			p.digest.add(fmt.Sprintf("seed %d bss %d failures %d goodput", seed, b.Index, failures), cell...)
		}
		p.tcpMbps = append(p.tcpMbps, tcpMbps)
		p.nodeMbps = append(p.nodeMbps, nodeMbps)
		if si == len(seeds)-1 {
			runtime.GC()
			p.heapLiveMB = float64(memStats().HeapAlloc) / (1 << 20)
			runtime.KeepAlive(n)
		}
	}
	return p, nil
}

// runNetwork measures a network workload untraced and, for a traced
// run, again with tracing on.
func runNetwork(w netWorkload, opt options) (*outcome, error) {
	plain, err := runNetPass(w, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: plain.flows,
		failed:    plain.failed,
		digest:    plain.digest.sum(),
		e2e: map[string]float64{
			"sim_s_per_s":      median(plain.rates),
			"setup_s":          median(plain.setups),
			"rss_mb":           rss,
			"allocs_per_sim_s": float64(plain.mallocs) / plain.windowSim.Seconds(),
		},
	}
	fmt.Fprintf(os.Stderr, "%s: %d flows, %d failed (%d receive nothing, %d BSS-runs log decompression failures)\n",
		w.name, plain.flows, plain.failed, plain.silent, plain.decompBSS)
	fmt.Fprintf(os.Stderr, "%s: %d chunks at %.3f / %.3f / %.3f simulated s per s (min / median / max)\n",
		w.name, len(plain.rates), minOf(plain.rates), median(plain.rates), maxOf(plain.rates))
	out.check("events", plain.cnt.events > 0, "%d events in %v simulated", plain.cnt.events, plain.windowSim)
	out.check("mac-conservation", plain.total.mpdusDelivered <= plain.total.mpdusSent && plain.total.collided <= plain.total.tx,
		"%d of %d MPDUs delivered, %d of %d transmissions collided since time 0",
		plain.total.mpdusDelivered, plain.total.mpdusSent, plain.total.collided, plain.total.tx)
	if w.offeredMbps > 0 {
		got := maxOf(plain.nodeMbps)
		out.check("goodput-bound", got <= w.offeredMbps, "%.3f Mbps received of %.0f Mbps offered", got, w.offeredMbps)
	}
	if !opt.trace {
		return out, nil
	}

	seeds := w.seeds(opt.seed)
	profiles := make([]string, len(seeds))
	for i, s := range seeds {
		profiles[i] = filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, s))
	}
	rec := newRecorder()
	traced, err := runNetPass(w, opt, rec, profiles)
	if err != nil {
		return nil, err
	}
	out.check("traced-equals-untraced", traced.digest.sum() == out.digest,
		"traced pass digest %.16s, untraced %.16s", traced.digest.sum(), out.digest)
	out.check("airtime-conserved", traced.conserved, "busy + idle == elapsed at every ledger snapshot")
	spans := filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, opt.seed))
	if err := rec.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: spans in %s, CPU profiles in %v\n", w.name, spans, profiles)

	m := map[string]float64{}
	traced.cnt.layerMetrics(m, traced.windowSim)
	// Failures anywhere in the run fail a BSS's flows, so count them all.
	m["rohc.decomp_failures"] = float64(traced.total.decompFailures)
	if traced.airBusy > 0 {
		m["channel.airtime_efficiency"] = float64(traced.airData) / float64(traced.airBusy)
	}
	m["sim.ns_per_event"] = float64(plain.windowWall.Nanoseconds()) / float64(plain.cnt.events)
	m["gc.allocs_per_event"] = float64(plain.mallocs) / float64(plain.cnt.events)
	m["gc.bytes_per_event"] = float64(plain.bytes) / float64(plain.cnt.events)
	m["gc.cycles"] = float64(plain.gcs)
	m["mem.heap_live_mb"] = plain.heapLiveMB
	m["tcp.goodput_mbps"] = mean(traced.tcpMbps)
	m["node.goodput_mbps"] = mean(traced.nodeMbps)
	m["tcp.jain_fairness"] = minJain(traced.cells)
	m["node.silent_clients"] = float64(traced.silent)
	m["node.build_s"] = median(plain.builds)
	m["trace.overhead_pct"] = 100 * (1 - median(traced.rates)/median(plain.rates))
	if err := addCPUShares(m, profiles); err != nil {
		return nil, err
	}
	out.layer = m
	return out, nil
}

// startProfile starts a CPU profile written to path.
func startProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// stopProfile stops the CPU profile and closes its file.
func stopProfile(f *os.File) error {
	pprof.StopCPUProfile()
	return f.Close()
}

// addCPUShares sets <layer>.cpu_pct from the CPU profiles.
func addCPUShares(m map[string]float64, profiles []string) error {
	shares, cpu, err := cpuShares(profiles...)
	if err != nil {
		return err
	}
	for l, v := range shares {
		m[l+".cpu_pct"] = v
	}
	fmt.Fprintf(os.Stderr, "cpu profile: %.1f CPU seconds\n", cpu)
	return nil
}

// minJain is the lowest Jain fairness index over the cells with at
// least two flows (0 when there are none).
func minJain(cells [][]float64) float64 {
	low := math.Inf(1)
	for _, c := range cells {
		if len(c) >= 2 {
			low = math.Min(low, jain(c))
		}
	}
	if math.IsInf(low, 1) {
		return 0
	}
	return low
}
