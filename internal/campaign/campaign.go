package campaign

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"

	"tcphack/internal/hack"
	"tcphack/internal/mac"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
	"tcphack/internal/stats"
	"tcphack/internal/trace"
)

// Axes are the sweep dimensions. An empty axis is not swept: the base
// configuration's value applies and the corresponding Point field
// reports it. Rates behaves like scenario.WithRate: sweeping the data
// rate reverts the LL ACK rate to the 802.11 control-response rules.
// Error-model axes (Loss, SNRsDB) install a fresh model per point,
// composing with each other and with the base configuration's model as
// independent loss processes — the same semantics as the
// scenario.WithUniformLoss/WithSNR options. Any base Err must be safe
// for concurrent read, since every network uses it as given; the
// channel's models (FixedLoss, SNRModel, Independent) are stateless and
// so campaign-safe. Adapters sweeps rate adaptation in
// scenario.WithRateAdapter's vocabulary ("fixed", "fixed:<rate>",
// "ideal", "argmax", "minstrel"); an oracle's rate is chosen once per
// network and Minstrel's state is per station per network, so the axis
// preserves the parallel-equals-serial guarantee.
type Axes struct {
	Modes    []hack.Mode
	Clients  []int
	Seeds    []int64
	Rates    []phy.Rate
	Adapters []string  // rate-adapter specs (scenario.WithRateAdapter)
	Loss     []float64 // uniform per-frame loss probability
	SNRsDB   []float64 // fixed channel SNR via the physical model
	// Topologies sweeps registered topology names
	// (scenario.TopologyNames). A topology replaces the base
	// configuration's whole layout, its geometry and its BSS list
	// ("default" clears both), and never sets a client count: the
	// clients axis, or the base's count, sizes each BSS. Unknown names
	// panic when the point is materialized; CLIs should pre-validate
	// against scenario.TopologyNames.
	Topologies []string
}

// Seeds returns n consecutive seeds starting at base — the usual
// "average over seeded repetitions" axis.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Point is one cell of the sweep grid.
type Point struct {
	// Index is the point's position in Spec.Points() order; Results are
	// returned in Index order regardless of worker count.
	Index    int       `json:"index"`
	Mode     hack.Mode `json:"-"`
	Clients  int       `json:"clients"`
	Seed     int64     `json:"seed"`
	Rate     phy.Rate  `json:"-"`
	Adapter  string    `json:"adapter,omitempty"`  // rate-adapter spec; the base's when unswept
	LossPct  float64   `json:"loss_pct"`           // percent, 0 when the axis is unswept
	SNRdB    float64   `json:"snr_db"`             // 0 when the axis is unswept
	Topology string    `json:"topology,omitempty"` // topology name; "" when unswept

	sweepRate, sweepLoss, sweepSNR bool
}

// AxisValues returns the point's axis values as canonical strings,
// keyed by the results-layer axis column names ("mode", "clients",
// "seed", "rate_kbps", "adapter", "loss_pct", "snr_db",
// "topology"). Numeric
// values use the shortest round-tripping decimal form — the same
// canonicalization as results.Num — so the map can key group lookups
// and content-addressed fingerprints interchangeably.
func (pt Point) AxisValues() map[string]string {
	return map[string]string{
		"mode":      pt.Mode.String(),
		"clients":   strconv.Itoa(pt.Clients),
		"seed":      strconv.FormatInt(pt.Seed, 10),
		"rate_kbps": strconv.Itoa(pt.Rate.Kbps),
		"adapter":   pt.Adapter,
		"loss_pct":  strconv.FormatFloat(pt.LossPct, 'f', -1, 64),
		"snr_db":    strconv.FormatFloat(pt.SNRdB, 'f', -1, 64),
		"topology":  pt.Topology,
	}
}

// Spec declares one campaign.
type Spec struct {
	// Name labels the campaign's result rows.
	Name string
	// Base is the scenario configuration every grid point starts from.
	Base node.Config
	// Axes are the sweep dimensions.
	Axes Axes

	// Warmup precedes the goodput measurement window (default 2 s);
	// Measure is the window length (default 4 s). When Duration is set
	// instead, the simulation runs exactly that long with no window and
	// goodput is measured from time zero — the shape of the paper's
	// fixed-transfer experiments (Tables 2 and 3).
	Warmup   sim.Duration
	Measure  sim.Duration
	Duration sim.Duration

	// Workers bounds the worker pool (default GOMAXPROCS; 1 = serial).
	Workers int

	// Build replaces node.New for network construction.
	Build func(cfg node.Config) *node.Network
	// Workload starts traffic; the default starts one unbounded TCP
	// download per client, staggered 50 ms apart (NamedWorkload's
	// "download").
	Workload func(n *node.Network, pt Point)
	// Collect extracts additional metrics into the point's Result
	// (typically into Result.Extra) after the simulation finishes.
	Collect func(n *node.Network, r *Result)
	// Trace, when set, returns a tracer to attach to the grid point's
	// network (nil attaches nothing for that point). If the returned
	// tracer is an io.Closer it is closed when the point finishes —
	// the hook for per-point JSONL trace files. Tracing is
	// determinism-neutral, so attaching one changes no metric.
	Trace func(pt Point) trace.Tracer
	// Airtime attaches an airtime ledger to each grid point's medium
	// once Build returns and writes the breakdown into Result.Extra:
	// airtime_{data,wifi_ack,bar,tcp_ack,retry,idle}_pct (shares of
	// wall-clock medium time) and airtime_efficiency (useful share of
	// busy airtime).
	Airtime bool
	// Skip prunes a grid point without simulating; its Result row is
	// emitted with Skipped set and zero metrics.
	Skip func(pt Point) bool
	// Progress, when set, is called after each grid point finishes
	// (including skipped points, and — under cancellation — points
	// that never ran and come back as Skipped rows) with the number of
	// completed points and the grid total. Calls are serialized and
	// done is strictly increasing from 1 to total, never exceeding
	// total, so the callback can drive live reporting without its own
	// locking.
	Progress func(done, total int)
}

// NamedWorkload returns the standard traffic pattern for a registered
// workload kind — the vocabulary scenario.Entry.Workload uses:
//
//   - "" or "download": one unbounded TCP download per client,
//     staggered 50 ms apart (the default).
//   - "upload": one unbounded TCP upload per client, staggered 50 ms
//     apart — the paper's wireless-backup direction (§3.1).
//   - "mixed": clients alternate download/upload (even index down, odd
//     index up); a lone client runs both directions concurrently.
//
// Upload goodput lands at the wired server rather than a client, so
// Result.AggregateMbps folds upload flows in explicitly (see Result).
//
// The closures drive every client the network actually built
// (len(n.Clients)), not the point's clients-axis value: multi-BSS
// topologies instantiate the per-BSS client count in each BSS, so the
// totals differ.
func NamedWorkload(kind string) (func(n *node.Network, pt Point), error) {
	switch kind {
	case "", "download":
		return func(n *node.Network, pt Point) {
			for ci := 0; ci < len(n.Clients); ci++ {
				n.StartDownload(ci, 0, sim.Duration(ci)*50*sim.Millisecond)
			}
		}, nil
	case "upload":
		return func(n *node.Network, pt Point) {
			for ci := 0; ci < len(n.Clients); ci++ {
				n.StartUpload(ci, 0, sim.Duration(ci)*50*sim.Millisecond)
			}
		}, nil
	case "mixed":
		return func(n *node.Network, pt Point) {
			if len(n.Clients) == 1 {
				n.StartDownload(0, 0, 0)
				n.StartUpload(0, 0, 25*sim.Millisecond)
				return
			}
			for ci := 0; ci < len(n.Clients); ci++ {
				stagger := sim.Duration(ci) * 50 * sim.Millisecond
				if ci%2 == 0 {
					n.StartDownload(ci, 0, stagger)
				} else {
					n.StartUpload(ci, 0, stagger)
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("campaign: unknown workload %q (want download, upload, or mixed)", kind)
}

// Result is one grid point's measurements.
type Result struct {
	Campaign string `json:"campaign"`
	Point
	ModeName string `json:"mode"`
	RateKbps int    `json:"rate_kbps"`
	Skipped  bool   `json:"skipped,omitempty"`

	// Goodput. PerClientMbps measures bytes delivered at each client
	// (downloads and UDP); AggregateMbps additionally folds in upload
	// flows, whose goodput lands at the wired peer instead of a
	// client, so upload and mixed workloads measure without a Collect
	// hook.
	PerClientMbps []float64 `json:"per_client_mbps"`
	AggregateMbps float64   `json:"aggregate_mbps"`

	// Medium utilization.
	AirtimeBusyPct float64 `json:"airtime_busy_pct"`
	Collisions     uint64  `json:"collisions"`

	// AP MAC health (Table 1's statistics).
	MPDUsSent      uint64  `json:"mpdus_sent"`
	MPDUsDelivered uint64  `json:"mpdus_delivered"`
	Retries        uint64  `json:"retries"`
	QueueDrops     uint64  `json:"queue_drops"`
	NoRetryPct     float64 `json:"no_retry_pct"`

	// HACK health.
	DecompFailures uint64 `json:"decomp_failures"`

	// Flow completion (fixed-size transfers).
	FlowsDone  int `json:"flows_done"`
	FlowsTotal int `json:"flows_total"`

	// Extra carries Collect's campaign-specific metrics.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Results is an ordered set of result rows with emitters.
type Results []Result

func (s Spec) withDefaults() Spec {
	if s.Duration == 0 {
		if s.Warmup == 0 {
			s.Warmup = 2 * sim.Second
		}
		if s.Measure == 0 {
			s.Measure = 4 * sim.Second
		}
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.Build == nil {
		s.Build = node.New
	}
	if s.Workload == nil {
		s.Workload, _ = NamedWorkload("download")
	}
	return s
}

// Points enumerates the sweep grid in its deterministic order: modes,
// then clients, then topologies, then rates, then adapters, then
// loss, then SNR, then seeds (seeds innermost, so repetitions of one
// cell are adjacent).
func (s Spec) Points() []Point {
	modes := s.Axes.Modes
	if len(modes) == 0 {
		modes = []hack.Mode{s.Base.Mode}
	}
	clients := s.Axes.Clients
	if len(clients) == 0 {
		c := s.Base.Clients
		if c == 0 {
			c = 1
		}
		clients = []int{c}
	}
	seeds := s.Axes.Seeds
	if len(seeds) == 0 {
		seeds = []int64{s.Base.Seed}
	}
	rates := s.Axes.Rates
	sweepRate := len(rates) > 0
	if !sweepRate {
		rates = []phy.Rate{s.Base.DataRate}
	}
	adapters := s.Axes.Adapters
	if len(adapters) == 0 {
		adapters = []string{s.Base.RateAdapter}
	}
	loss := s.Axes.Loss
	sweepLoss := len(loss) > 0
	if !sweepLoss {
		loss = []float64{0}
	}
	snrs := s.Axes.SNRsDB
	sweepSNR := len(snrs) > 0
	if !sweepSNR {
		snrs = []float64{0}
	}
	topos := s.Axes.Topologies
	if len(topos) == 0 {
		topos = []string{""}
	}

	var pts []Point
	for _, m := range modes {
		for _, c := range clients {
			for _, topo := range topos {
				for _, r := range rates {
					for _, a := range adapters {
						for _, l := range loss {
							for _, snr := range snrs {
								for _, seed := range seeds {
									pts = append(pts, Point{
										Index: len(pts), Mode: m, Clients: c, Seed: seed,
										Rate: r, Adapter: a, LossPct: l * 100, SNRdB: snr,
										Topology:  topo,
										sweepRate: sweepRate, sweepLoss: sweepLoss, sweepSNR: sweepSNR,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// config materializes the node configuration for one grid point.
func (s Spec) config(pt Point) node.Config {
	cfg := s.Base
	cfg.Mode = pt.Mode
	cfg.Clients = pt.Clients
	cfg.Seed = pt.Seed
	cfg.RateAdapter = pt.Adapter
	if pt.Topology != "" {
		topo, ok := scenario.TopologyOption(pt.Topology)
		if !ok {
			panic(fmt.Sprintf("campaign: unknown topology %q (want one of %v)",
				pt.Topology, scenario.TopologyNames()))
		}
		topo(&cfg)
	}
	if pt.sweepRate {
		scenario.WithRate(pt.Rate)(&cfg)
	}
	if pt.sweepLoss {
		scenario.WithUniformLoss(pt.LossPct / 100)(&cfg)
	}
	if pt.sweepSNR {
		scenario.WithSNR(pt.SNRdB)(&cfg)
	}
	return cfg
}

// Run executes the sweep on the worker pool and returns one Result per
// grid point, in Points() order. Each simulation is fully independent
// (own scheduler, own RNG streams), so the output is identical for any
// worker count. Run never cancels; RunContext adds that.
func Run(s Spec) Results {
	rs, _ := RunContext(context.Background(), s)
	return rs
}

// RunContext is Run with cancellation: when ctx is cancelled, no new
// grid points start, in-flight simulations finish (a point is the unit
// of work — individual simulations are not interruptible), and the
// call returns ctx's error along with the partial Results. Rows whose
// points never ran carry Skipped like a Skip-pruned point, so the
// emitters and the results layer handle partial output unchanged;
// completed rows sit at their Points() index as usual. The Progress
// callback (see Spec) fires monotonically throughout.
func RunContext(ctx context.Context, s Spec) (Results, error) {
	s = s.withDefaults()
	pts := s.Points()
	results := make(Results, len(pts))
	ran := make([]bool, len(pts))

	// done counts finished rows; reported is the highest count already
	// delivered to the callback. Reporting only strictly increasing
	// values clamped to the grid size keeps the callback's contract
	// (monotonic, never past total) even when rows error out under
	// cancellation and the unrun tail is accounted separately below.
	var progressMu sync.Mutex
	done, reported := 0, 0
	finished := func() {
		if s.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		if n := len(pts); done > n {
			done = n
		}
		if done > reported {
			reported = done
			s.Progress(done, len(pts))
		}
		progressMu.Unlock()
	}

	work := make(chan int)
	var wg sync.WaitGroup
	workers := s.Workers
	if workers > len(pts) {
		workers = len(pts)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = s.runPoint(pts[i])
				ran[i] = true
				finished()
			}
		}()
	}
feed:
	for i := range pts {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	for i := range pts {
		if !ran[i] {
			results[i] = Result{
				Campaign: s.Name, Point: pts[i],
				ModeName: pts[i].Mode.String(), RateKbps: pts[i].Rate.Kbps,
				Skipped: true,
			}
			finished()
		}
	}
	return results, ctx.Err()
}

func (s Spec) runPoint(pt Point) Result {
	r := Result{
		Campaign: s.Name,
		Point:    pt,
		ModeName: pt.Mode.String(),
		RateKbps: pt.Rate.Kbps,
	}
	if s.Skip != nil && s.Skip(pt) {
		r.Skipped = true
		return r
	}
	cfg := s.config(pt)
	var userTr trace.Tracer
	if s.Trace != nil {
		userTr = s.Trace(pt)
		cfg.Tracer = trace.Multi(cfg.Tracer, userTr)
	}
	n := s.Build(cfg)
	var ledger *trace.AirtimeLedger
	if s.Airtime {
		// The ledger reads only the medium's events: attached to every
		// layer it would pay for every probe it ignores.
		ledger = trace.NewAirtimeLedger()
		n.Medium.Tracer = trace.Multi(n.Medium.Tracer, ledger)
	}
	s.Workload(n, pt)

	if s.Duration > 0 {
		n.Run(s.Duration)
	} else {
		n.Run(s.Warmup)
		for _, c := range n.Clients {
			c.Goodput.MarkWindow(n.Sched.Now())
		}
		for _, f := range n.Flows {
			f.Goodput.MarkWindow(n.Sched.Now())
		}
		n.Run(s.Warmup + s.Measure)
	}

	now := n.Sched.Now()
	for _, c := range n.Clients {
		mbps := c.Goodput.WindowMbps(now)
		if s.Duration > 0 {
			mbps = c.Goodput.Mbps(now)
		}
		r.PerClientMbps = append(r.PerClientMbps, mbps)
		r.AggregateMbps += mbps
	}
	// Upload goodput lands at the wired peer, not a client, so fold
	// upload flows into the aggregate separately (download and UDP
	// traffic is already counted in the per-client meters).
	for _, f := range n.Flows {
		if !f.Upload {
			continue
		}
		if s.Duration > 0 {
			r.AggregateMbps += f.Goodput.Mbps(now)
		} else {
			r.AggregateMbps += f.Goodput.WindowMbps(now)
		}
	}
	if now > 0 {
		r.AirtimeBusyPct = 100 * float64(n.Medium.AirtimeBusy) / float64(now)
	}
	r.Collisions = n.Medium.CollidedTx
	// Sum AP-side MAC health over every BSS; for the single-BSS star
	// this is exactly the legacy n.AP numbers.
	var ap stats.MAC
	for _, b := range n.BSSes {
		s := b.AP.MAC.Stats
		ap.MPDUsSent += s.MPDUsSent
		ap.MPDUsDelivered += s.MPDUsDelivered
		ap.DeliveredFirstTry += s.DeliveredFirstTry
		ap.DeliveredRetried += s.DeliveredRetried
		ap.Retries += s.Retries
		ap.QueueDrops += s.QueueDrops
	}
	r.MPDUsSent = ap.MPDUsSent
	r.MPDUsDelivered = ap.MPDUsDelivered
	r.Retries = ap.Retries
	r.QueueDrops = ap.QueueDrops
	r.NoRetryPct = ap.NoRetryFraction() * 100
	r.DecompFailures = n.DecompFailures()
	r.FlowsTotal = len(n.Flows)
	for _, f := range n.Flows {
		if f.Done {
			r.FlowsDone++
		}
	}
	if ledger != nil {
		rep := ledger.Snapshot(now)
		if r.Extra == nil {
			r.Extra = make(map[string]float64, 7)
		}
		if el := float64(rep.Elapsed); el > 0 {
			r.Extra["airtime_data_pct"] = 100 * float64(rep.Total.Data) / el
			r.Extra["airtime_wifi_ack_pct"] = 100 * float64(rep.Total.WifiAck) / el
			r.Extra["airtime_bar_pct"] = 100 * float64(rep.Total.BAR) / el
			r.Extra["airtime_tcp_ack_pct"] = 100 * float64(rep.Total.TCPAck) / el
			r.Extra["airtime_retry_pct"] = 100 * float64(rep.Total.Retry) / el
			r.Extra["airtime_idle_pct"] = 100 * float64(rep.Idle) / el
		}
		r.Extra["airtime_efficiency"] = rep.Efficiency()
		// Per-BSS attribution: group station airtime by owning BSS so
		// multi-BSS sweeps expose each cell's airtime share and useful
		// fraction of it (data / busy).
		if len(n.BSSes) > 1 {
			busy := make([]sim.Duration, len(n.BSSes))
			data := make([]sim.Duration, len(n.BSSes))
			for _, st := range rep.Stations {
				bi := n.BSSOfAddr(mac.Addr(st.Station))
				if bi < 0 {
					continue
				}
				busy[bi] += st.Buckets.Busy()
				data[bi] += st.Buckets.Data
			}
			for bi := range n.BSSes {
				prefix := fmt.Sprintf("airtime_bss%d_", bi)
				if el := float64(rep.Elapsed); el > 0 {
					r.Extra[prefix+"busy_pct"] = 100 * float64(busy[bi]) / el
				}
				if busy[bi] > 0 {
					r.Extra[prefix+"efficiency"] = float64(data[bi]) / float64(busy[bi])
				}
			}
		}
	}
	if c, ok := userTr.(io.Closer); ok {
		c.Close()
	}
	if s.Collect != nil {
		s.Collect(n, &r)
	}
	return r
}
