package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/dist"
	"tcphack/internal/node"
	"tcphack/internal/results"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// The paper sweep is the §4.3 experiment submitted to the campaign
// service: ht150 TCP downloads over modes {off, more-data} × clients
// {1, 4} × uniform loss {0, 5 %} × 2 seeds, 1 s warm-up and 10 s
// measurement per point, one point per shard. A run submits it in
// rounds, each with two fresh seeds, and resubmits every round, which
// the daemon must answer from its store.
const (
	sweepWarmup  = sim.Second
	sweepMeasure = 10 * sim.Second
	sweepPoints  = 16
	// sweepRoundRef is the host seconds one cold round took on the
	// reference host (2 vCPUs); it sizes the number of rounds.
	sweepRoundRef = 2.9
	// sweepSetups is how often a pass starts the daemon; the last one
	// started serves the rounds.
	sweepSetups = 15
	// poll is the worker's idle lease poll and the client's status
	// poll, short so a round times work and not idle backoff.
	poll = time.Millisecond
)

// sweepSpec is round r's job for a --seed: its grid seeds are
// 1000·seed + 2r and the next one.
func sweepSpec(seed int64, round int) campaign.WireSpec {
	s := 1000*seed + int64(2*round)
	return campaign.WireSpec{
		Name:     "paper-sweep",
		Scenario: "ht150-stock",
		Axes: campaign.WireAxes{
			Modes:   []string{"off", "more-data"},
			Clients: []int{1, 4},
			Loss:    []float64{0, 0.05},
			Seeds:   []int64{s, s + 1},
		},
		Warmup:  sweepWarmup,
		Measure: sweepMeasure,
	}
}

// daemon is an in-process campaign service: a dist server over a
// MemStore behind a loopback listener, one worker, and one submitting
// client, each client on its own HTTP connection.
type daemon struct {
	srv        *http.Server
	served     chan error
	client     dist.Client
	stop       context.CancelFunc
	workerDone chan error
	transports []*http.Transport
	retries    atomic.Int64
	// parent is the span that dist calls and store accesses nest
	// under: the current round or resubmission.
	parent atomic.Int64
}

func (d *daemon) parentSpan() int { return int(d.parent.Load()) }

// startDaemon starts the daemon, its store, listener and worker, and
// returns once the daemon answers. With a recorder every HTTP call and
// store access records a span.
func startDaemon(rec *recorder, parent int) (*daemon, error) {
	d := &daemon{served: make(chan error, 1), workerDone: make(chan error, 1)}
	d.parent.Store(int64(parent))
	var store dist.Store = dist.NewMemStore()
	if rec != nil {
		store = spanStore{inner: store, rec: rec, parent: d.parentSpan}
	}
	srv, err := dist.NewServer(dist.ServerConfig{Store: store})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	clientRT := d.transport(rec, "client")
	d.client = dist.Client{BaseURL: url, HTTPClient: &http.Client{Transport: clientRT},
		Retry: dist.RetryPolicy{Seed: "client", OnRetry: d.countRetry}}
	workerRT := d.transport(rec, "worker")
	w := &dist.Worker{
		Client: dist.Client{BaseURL: url, HTTPClient: &http.Client{Transport: workerRT},
			Retry: dist.RetryPolicy{Seed: "worker", OnRetry: d.countRetry}},
		Name: "worker", Poll: poll, MaxPoll: 2 * poll,
	}
	if st, ok := workerRT.(*spanTransport); ok {
		w.OnPoint = func(dist.LeaseGrant, int, bool, error) { st.pointDone(d.parentSpan()) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	go func() { d.workerDone <- w.Run(ctx) }()
	if _, err := d.client.Jobs(); err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

func (d *daemon) countRetry(string, int, error) { d.retries.Add(1) }

// transport returns a fresh loopback transport (no proxy), wrapped in
// a spanTransport when tracing.
func (d *daemon) transport(rec *recorder, track string) http.RoundTripper {
	t := &http.Transport{MaxIdleConnsPerHost: 1}
	d.transports = append(d.transports, t)
	if rec == nil {
		return t
	}
	return &spanTransport{base: t, rec: rec, track: track, parent: d.parentSpan}
}

// close stops the worker, then the server, and waits for both.
func (d *daemon) close() error {
	d.stop()
	werr := <-d.workerDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	for _, t := range d.transports {
		t.CloseIdleConnections()
	}
	return errors.Join(werr, serr)
}

// sweepPass is one pass of the paper sweep: set-ups, then the rounds.
type sweepPass struct {
	setups, rates, memo, aggregate []float64 // seconds, sim s per host s, seconds, seconds
	wall                           time.Duration
	simTime                        sim.Duration
	mallocs, bytes, gcs            uint64
	rows                           []campaign.Results // per round, cold
	cachedShare                    float64
	flows, failed                  int
	retries                        int64
	digest                         digester
	// headline counts the seeds whose one-client lossless cell has
	// MORE-DATA beating stock TCP, of those run.
	headline, headlineWins int
}

// rounds is the number of 16-point rounds that fill --seconds on the
// reference host.
func rounds(seconds int) int {
	return int(math.Max(1, math.Round(float64(seconds)/sweepRoundRef)))
}

// runSweepPass starts the daemon sweepSetups times and runs the rounds
// on the last one. With a recorder it records spans and writes a CPU
// profile of the rounds to profilePath.
func runSweepPass(opt options, rec *recorder, profilePath string) (*sweepPass, error) {
	p := &sweepPass{cachedShare: 1}
	root := rec.open("pass", 0)
	defer rec.end(root)
	var d *daemon
	for k := 0; k < sweepSetups; k++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
		}
		runtime.GC()
		setup := rec.open("setup", root)
		t0 := time.Now()
		var err error
		if d, err = startDaemon(rec, setup); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		rec.end(setup)
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()

	var prof *os.File
	if rec != nil {
		var err error
		if prof, err = startProfile(profilePath); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	for r := 0; r < rounds(opt.seconds); r++ {
		spec := sweepSpec(opt.seed, r)
		round := rec.open(fmt.Sprintf("round %d", r), root)
		d.parent.Store(int64(round))
		m0 := memStats()
		t0 := time.Now()
		st, err := d.client.Submit(spec, 1)
		if err == nil {
			st, err = d.client.WaitDone(ctx, st.ID, poll)
		}
		wall := time.Since(t0)
		m1 := memStats()
		if err != nil {
			return nil, err
		}
		rows, err := d.client.Rows(st.ID)
		if err != nil {
			return nil, err
		}
		simTime := sim.Duration(len(rows)) * (sweepWarmup + sweepMeasure)
		p.wall += wall
		p.simTime += simTime
		p.rates = append(p.rates, simTime.Seconds()/wall.Seconds())
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.bytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += uint64(m1.NumGC - m0.NumGC)
		p.rows = append(p.rows, rows)

		ta := time.Now()
		table, err := results.FromResults(rows).Aggregate("mode", "clients", "loss_pct")
		p.aggregate = append(p.aggregate, time.Since(ta).Seconds())
		rec.add("results.Aggregate", "main", round, ta, time.Now())
		if err != nil {
			return nil, err
		}
		if r == 0 && rec == nil {
			printPaperTable(table)
		}

		memo := rec.open("resubmit", round)
		d.parent.Store(int64(memo))
		tm := time.Now()
		again, err := d.client.Submit(spec, 1)
		if err == nil && again.State != "done" {
			again, err = d.client.WaitDone(ctx, again.ID, poll)
		}
		var cached campaign.Results
		if err == nil {
			cached, err = d.client.Rows(again.ID)
		}
		if err != nil {
			return nil, err
		}
		p.memo = append(p.memo, time.Since(tm).Seconds())
		rec.end(memo)
		rec.end(round)
		p.cachedShare = math.Min(p.cachedShare, float64(again.CachedPoints)/float64(again.TotalPoints))
		if err := p.score(r, spec, rows, cached); err != nil {
			return nil, err
		}
	}
	if prof != nil {
		if err := stopProfile(prof); err != nil {
			return nil, err
		}
	}
	p.retries = d.retries.Load()
	err := d.close()
	d = nil
	if err != nil {
		return nil, err
	}
	return p, nil
}

// score checks one round's rows and counts its flows: a flow fails
// when its client received nothing, when its point logged a ROHC
// decompression failure, or when the resubmitted row differs.
func (p *sweepPass) score(r int, spec campaign.WireSpec, rows, cached campaign.Results) error {
	if len(rows) != sweepPoints || len(cached) != len(rows) {
		return fmt.Errorf("round %d: %d cold rows and %d resubmitted rows, want %d", r, len(rows), len(cached), sweepPoints)
	}
	for k, row := range rows {
		a, err := json.Marshal(row)
		if err != nil {
			return err
		}
		b, err := json.Marshal(cached[k])
		if err != nil {
			return err
		}
		p.digest.add(string(a))
		for _, mbps := range row.PerClientMbps {
			p.flows++
			if mbps == 0 || row.DecompFailures > 0 || !bytes.Equal(a, b) {
				p.failed++
			}
		}
	}
	// The paper's headline: MORE-DATA beats stock TCP for one lossless
	// client.
	for _, seed := range spec.Axes.Seeds {
		stock, hack := 0.0, 0.0
		for _, row := range rows {
			if row.Seed == seed && row.Clients == 1 && row.LossPct == 0 {
				if row.ModeName == "off" {
					stock = row.AggregateMbps
				} else {
					hack = row.AggregateMbps
				}
			}
		}
		p.headline++
		if hack > stock && stock > 0 {
			p.headlineWins++
		}
	}
	return nil
}

func printPaperTable(a *results.Agg) {
	fmt.Fprintln(os.Stderr, "paper table (round 0; mean over 2 seeds):")
	for _, g := range a.Groups {
		fmt.Fprintf(os.Stderr, "  mode=%-9s clients=%s loss=%s%%  aggregate %.1f Mbps\n",
			g.Key[0], g.Key[1], g.Key[2], g.Mean("aggregate_mbps"))
	}
}

func runPaperSweep(opt options) (*outcome, error) {
	plain, err := runSweepPass(opt, nil, "")
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
			"allocs_per_sim_s": float64(plain.mallocs) / plain.simTime.Seconds(),
		},
	}
	out.check("hack-beats-stock", plain.headlineWins == plain.headline,
		"more-data above off for one lossless client on %d of %d seeds", plain.headlineWins, plain.headline)
	out.check("resubmit-cached", plain.cachedShare == 1, "%.0f%% of resubmitted points came from the store", 100*plain.cachedShare)
	if err := checkRunPoints(out, opt, plain.rows[0]); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "paper-sweep: %d rounds, %d flows, %d failed; rounds at %.2f simulated s per s\n",
		len(plain.rows), plain.flows, plain.failed, plain.rates)
	if !opt.trace {
		return out, nil
	}

	profile := filepath.Join(opt.outDir, fmt.Sprintf("paper-sweep-seed%d.cpu.pprof", opt.seed))
	rec := newRecorder()
	traced, err := runSweepPass(opt, rec, profile)
	if err != nil {
		return nil, err
	}
	out.check("traced-equals-untraced", traced.digest.sum() == out.digest,
		"traced pass digest %.16s, untraced %.16s", traced.digest.sum(), out.digest)
	m := map[string]float64{}
	if err := collectSweep(out, m, opt, plain.rows); err != nil {
		return nil, err
	}
	spans := filepath.Join(opt.outDir, fmt.Sprintf("paper-sweep-seed%d.spans.jsonl", opt.seed))
	if err := rec.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "paper-sweep: spans in %s, CPU profile in %s\n", spans, profile)

	m["sim.ns_per_event"] = float64(plain.wall.Nanoseconds()) / m["sim.events"]
	m["gc.allocs_per_event"] = float64(plain.mallocs) / m["sim.events"]
	m["gc.bytes_per_event"] = float64(plain.bytes) / m["sim.events"]
	m["gc.cycles"] = float64(plain.gcs)
	m["trace.overhead_pct"] = 100 * (1 - median(traced.rates)/median(plain.rates))
	points := rec.selfSeconds("campaign.point")
	m["campaign.point_s.p50"] = median(points)
	m["campaign.point_s.max"] = maxOf(points)
	m["campaign.point_s.count"] = float64(len(points))
	m["results.aggregate_s"] = median(plain.aggregate)
	for _, call := range []string{"lease", "stream", "complete", "status"} {
		ms := rec.durations("dist." + call)
		m["dist."+call+"_ms.p50"] = median(ms)
		m["dist."+call+"_ms.tail"] = tail(ms)
		m["dist."+call+"_ms.count"] = float64(len(ms))
	}
	m["dist.retries"] = float64(plain.retries + traced.retries)
	m["dist.store_get_us"] = 1000 * median(rec.durations("store.get"))
	m["dist.store_put_us"] = 1000 * median(rec.durations("store.put"))
	var busy float64
	for _, s := range points {
		busy += s
	}
	m["dist.worker_idle_s"] = traced.wall.Seconds() - busy
	m["dist.memo_s"] = median(plain.memo)
	m["dist.cached_share"] = plain.cachedShare
	if err := addCPUShares(m, []string{profile}); err != nil {
		return nil, err
	}
	out.layer = m
	return out, nil
}

// checkRunPoints re-runs one point of the first round in process with
// campaign.RunPoints; its row must match the daemon's byte for byte.
func checkRunPoints(out *outcome, opt options, rows campaign.Results) error {
	spec, err := sweepSpec(opt.seed, 0).Spec()
	if err != nil {
		return err
	}
	idx := int(uint64(opt.seed) % sweepPoints)
	local, err := campaign.RunPoints(context.Background(), spec, []int{idx})
	if err != nil {
		return err
	}
	a, err := json.Marshal(local[0])
	if err != nil {
		return err
	}
	b, err := json.Marshal(rows[idx])
	if err != nil {
		return err
	}
	out.check("runpoints-equals-daemon", bytes.Equal(a, b), "point %d re-run in process, %d bytes of JSON", idx, len(a))
	return nil
}

// collectSweep runs every round's grid through campaign.Run with
// Collect and Airtime to read the per-point counters the wire form
// does not carry, and checks its rows equal the daemon's. The live
// heap is the largest seen with a point's finished network alive.
func collectSweep(out *outcome, m map[string]float64, opt options, daemonRows []campaign.Results) error {
	var total counts
	var builds []float64
	var data, busy sim.Duration
	var simTime sim.Duration
	conserved, sameRows, sameEff := true, true, true
	var goodput []float64
	jainLow := math.Inf(1)
	silent := 0
	heapLive := 0.0
	for r, want := range daemonRows {
		spec, err := sweepSpec(opt.seed, r).Spec()
		if err != nil {
			return err
		}
		ledgers := make([]*trace.AirtimeLedger, sweepPoints)
		spec.Workers = 1
		spec.Airtime = true
		spec.Trace = func(pt campaign.Point) trace.Tracer {
			ledgers[pt.Index] = trace.NewAirtimeLedger()
			return ledgers[pt.Index]
		}
		spec.Build = func(cfg node.Config) *node.Network {
			t0 := time.Now()
			n := node.New(cfg)
			builds = append(builds, time.Since(t0).Seconds())
			return n
		}
		spec.Collect = func(n *node.Network, row *campaign.Result) {
			total.add(snapshot(n))
			rep := ledgers[row.Index].Snapshot(n.Sched.Now())
			conserved = conserved && rep.Conserved()
			sameEff = sameEff && rep.Efficiency() == row.Extra["airtime_efficiency"]
			data += rep.Total.Data
			busy += rep.Busy()
			simTime += sim.Duration(n.Sched.Now())
			runtime.GC()
			heapLive = math.Max(heapLive, float64(memStats().HeapAlloc)/(1<<20))
			runtime.KeepAlive(n)
		}
		got := campaign.Run(spec)
		for k, row := range got {
			row.Extra = nil
			a, err := json.Marshal(row)
			if err != nil {
				return err
			}
			b, err := json.Marshal(want[k])
			if err != nil {
				return err
			}
			sameRows = sameRows && bytes.Equal(a, b)
			goodput = append(goodput, row.AggregateMbps)
			if len(row.PerClientMbps) >= 2 {
				jainLow = math.Min(jainLow, jain(row.PerClientMbps))
			}
			for _, mbps := range row.PerClientMbps {
				if mbps == 0 {
					silent++
				}
			}
		}
	}
	out.check("collect-equals-daemon", sameRows, "campaign.Run rows (without airtime columns) equal the daemon's")
	out.check("airtime-conserved", conserved, "busy + idle == elapsed in every point's ledger")
	out.check("airtime-columns", sameEff, "the airtime_efficiency column equals the ledger's")
	total.layerMetrics(m, simTime)
	m["channel.airtime_efficiency"] = float64(data) / float64(busy)
	m["tcp.goodput_mbps"] = mean(goodput)
	m["node.goodput_mbps"] = mean(goodput)
	m["tcp.jain_fairness"] = jainLow
	m["node.silent_clients"] = float64(silent)
	m["node.build_s"] = median(builds)
	m["mem.heap_live_mb"] = heapLive
	return nil
}
