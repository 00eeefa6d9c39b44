// Package tcphack is a from-scratch reproduction of "HACK:
// Hierarchical ACKs for Efficient Wireless Medium Utilization"
// (Salameh, Zhushi, Handley, Jamieson, Karp — USENIX ATC 2014):
// TCP/HACK carries compressed TCP acknowledgments inside 802.11
// link-layer acknowledgments, eliminating the medium acquisitions that
// TCP ACK packets otherwise require.
//
// The package is the one public entry point to the simulator for code
// outside this module: a thin layer of re-exports over the internal
// packages. It exports what the two commands (cmd/hacksim,
// cmd/hackbench), the examples, README.md and this documentation use,
// and nothing else; internal/doccheck's TestFacadeSurface fails on an
// export none of them names. Its parts:
//
// Scenario builder. A scenario is a NetworkConfig composed from
// functional options — a preset (With80211n, WithSoRa) refined by
// per-axis options — with a registry of named scenarios
// (Scenarios, LookupScenario) for CLIs and tests:
//
//	cfg := tcphack.NewScenario(tcphack.With80211n(),
//		tcphack.WithMode(tcphack.ModeMoreData), tcphack.WithClients(4))
//
// Campaign runner. A Campaign declares a base scenario and the axes to
// sweep — modes × client counts × seeds × rates × loss × SNR — and
// RunCampaign executes the grid on a bounded worker pool, one
// deterministic simulation per point, returning structured result rows
// (goodput, airtime, retries) with JSON/CSV emitters. Parallel and
// serial runs produce row-for-row identical results;
// RunCampaignContext adds cancellation and a progress callback for
// large grids:
//
//	results := tcphack.RunCampaign(tcphack.Campaign{
//		Name: "modes-vs-clients",
//		Base: tcphack.NewScenario(tcphack.With80211n()),
//		Axes: tcphack.CampaignAxes{
//			Modes:   []tcphack.Mode{tcphack.ModeOff, tcphack.ModeMoreData},
//			Clients: []int{1, 2, 4, 10},
//			Seeds:   tcphack.CampaignSeeds(1, 5),
//		},
//	})
//	results.WriteCSV(os.Stdout)
//
// Results layer. On top of the raw rows sits internal/results, the
// statistical subsystem the paper's evaluation methodology demands:
// group-by aggregation (count/mean/stddev/min/max/95% CI per metric),
// persisted baselines, and regression detection:
//
//	table := tcphack.NewResultsTable(results)
//	agg, _ := table.Aggregate("mode", "clients")
//	_ = tcphack.SaveBaselineFile("baseline.json", tcphack.NewBaseline(agg))
//	// ... later, after a fresh run of the same sweep:
//	base, _ := tcphack.LoadBaselineFile("baseline.json")
//	cmp, _ := tcphack.CompareBaseline(agg, base, nil)
//	cmp.Report(os.Stdout) // cmp.Clean() is the gate verdict
//
// Campaign service. A DistServer daemon runs WireCampaign jobs — a
// registered scenario name plus axes in command-line vocabulary — on
// DistWorkers, memoizing every grid point; merged rows are
// byte-identical to a local RunCampaign (internal/dist documents the
// determinism and lease contracts).
//
// Observability. A Tracer attached with WithTracer sees every layer's
// events; NewTraceWriter streams them as JSONL, NewTraceRecorder keeps
// the most recent in memory, and NewAirtimeLedger accounts medium time
// per station.
//
// Paper runners. Fig1a through Fig12, Table2, Table3,
// CrossValidation and LossResilience regenerate the paper's
// evaluation, each as a campaign.
//
// Underneath sit the subsystems the options parameterize:
//
//   - a deterministic discrete-event 802.11a/n simulator
//     (internal/sim, internal/phy, internal/channel, internal/mac),
//     including rate adaptation (WithRateAdapter: a fixed rate, an
//     SNR oracle that picks one rate per network, or a Minstrel-style
//     learner per station);
//   - a standards-shaped TCP stack (internal/tcp) and real IPv4/TCP
//     wire formats (internal/packet);
//   - ROHC-style TCP ACK compression (internal/rohc);
//   - the HACK driver itself (internal/hack) with the MORE DATA,
//     opportunistic, and timer holding policies;
//   - network composition (internal/node), closed-form capacity models
//     (internal/analytical), and campaign-based runners for every
//     table and figure in the paper's evaluation (internal/experiments,
//     internal/campaign, internal/scenario).
//
// Single simulations remain a three-liner when a campaign is overkill:
//
//	n := tcphack.NewNetwork(tcphack.NewScenario(tcphack.With80211n()))
//	flow := n.StartDownload(0, 0, 0)
//	n.Run(2 * tcphack.Second)
//	flow.Goodput.MarkWindow(n.Sched.Now())
//	n.Run(8 * tcphack.Second)
//	fmt.Printf("%.1f Mbps\n", flow.Goodput.WindowMbps(n.Sched.Now()))
package tcphack

import (
	"context"
	"io"

	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/experiments"
	"tcphack/internal/hack"
	"tcphack/internal/mac"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/results"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// Re-exported core types.
type (
	// NetworkConfig parameterizes a simulated WLAN (see node.Config).
	NetworkConfig = node.Config
	// Network is an assembled simulation.
	Network = node.Network
	// Mode selects the HACK ACK-holding policy.
	Mode = hack.Mode
	// Rate is an 802.11 PHY rate.
	Rate = phy.Rate
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// Pos is a 2-D position in metres (client topology).
	Pos = channel.Pos
	// ExperimentOptions scales the paper-reproduction runners.
	ExperimentOptions = experiments.Options
)

// Scenario builder.
type (
	// ScenarioOption composes a NetworkConfig (see NewScenario).
	ScenarioOption = scenario.Option
	// ScenarioEntry is one named scenario from the registry.
	ScenarioEntry = scenario.Entry
)

// NewScenario builds a NetworkConfig from options; later options
// override earlier ones, so presets can be specialized freely.
func NewScenario(opts ...ScenarioOption) NetworkConfig { return scenario.New(opts...) }

// Scenario-builder options.
var (
	// With80211n applies the paper's §4.3 preset: 150 Mbps 802.11n,
	// A-MPDU aggregation, 24 Mbps LL ACKs, wired backhaul.
	With80211n = scenario.With80211n
	// WithSoRa applies the paper's §4.1 testbed preset: 802.11a @54,
	// AP-resident sender, SoRa's late link-layer ACKs.
	WithSoRa = scenario.WithSoRa
	// WithMode selects the HACK ACK-holding policy.
	WithMode = scenario.WithMode
	// WithClients sets the number of WiFi clients.
	WithClients = scenario.WithClients
	// WithSeed sets the RNG seed.
	WithSeed = scenario.WithSeed
	// WithRate sets the PHY data rate (LL ACK rate follows the 802.11
	// control-response rules).
	WithRate = scenario.WithRate
	// WithRateAdapter selects rate adaptation: "fixed",
	// "fixed:<rate>", "ideal", "argmax" (the oracles pick one rate per
	// network), or "minstrel" (one learner per station).
	WithRateAdapter = scenario.WithRateAdapter
	// WithUniformLoss applies a uniform per-frame loss probability.
	WithUniformLoss = scenario.WithUniformLoss
	// WithSNR fixes the SNR of every link in dB via the SNR error
	// model.
	WithSNR = scenario.WithSNR
	// WithGeometry installs a spatial PHY configuration on the medium
	// (per-pair path loss, per-receiver carrier sense, SINR capture),
	// typically DefaultGeometry() with its carrier-sense threshold,
	// delivery floor or capture margin refined; nil restores the single
	// collision domain.
	WithGeometry = scenario.WithGeometry
	// WithPathLoss switches to the spatial PHY with the default
	// geometry (≈51.5 m sense/delivery range).
	WithPathLoss = scenario.WithPathLoss
	// WithBSSLayout replaces the single-BSS star with overlapping BSSs
	// contending on one medium, one BSSSpec per BSS.
	WithBSSLayout = scenario.WithBSSLayout
	// WithWire sets the server—AP wired backhaul.
	WithWire = scenario.WithWire
)

// Scenarios lists the named scenarios in the registry, sorted by name.
func Scenarios() []ScenarioEntry { return scenario.All() }

// LookupScenario builds a named scenario's NetworkConfig, applying
// extra options on top (e.g. WithClients, WithSeed).
func LookupScenario(name string, extra ...ScenarioOption) (NetworkConfig, bool) {
	e, ok := scenario.Lookup(name)
	if !ok {
		return NetworkConfig{}, false
	}
	return e.Config(extra...), true
}

// ScenarioWorkload returns the named scenario's traffic-workload kind
// ("upload", "mixed"; "" for the default download workload or an
// unknown name) — feed it to NamedCampaignWorkload to start the right
// flows.
func ScenarioWorkload(name string) string { return scenario.WorkloadOf(name) }

// Spatial PHY configuration (see the channel package).
type (
	// Geometry configures the spatial PHY: log-distance path loss,
	// per-receiver carrier sensing, SINR capture.
	Geometry = channel.Geometry
	// BSSSpec declares one BSS of a multi-BSS layout (WithBSSLayout):
	// its AP's Pos, its client count and each client's Pos.
	BSSSpec = node.BSSSpec
)

// DefaultGeometry returns the spatial PHY over the paper's indoor
// path-loss constants, with an 802.11-style -82 dBm carrier-sense
// threshold and delivery floor and ideal capture.
func DefaultGeometry() *Geometry { return channel.DefaultGeometry() }

// TopologyNames lists the registered topology names, sorted — the
// vocabulary of the campaign topology axis.
func TopologyNames() []string { return scenario.TopologyNames() }

// RateStats is one rate's learned state in a Minstrel adapter
// (see Network.APMinstrelStats / Network.ClientMinstrelStats and
// hacksim's -rate-stats flag).
type RateStats = mac.RateStats

// Campaign runner.
type (
	// Campaign declares a sweep: a base scenario × axes, executed in
	// parallel on a bounded worker pool.
	Campaign = campaign.Spec
	// CampaignAxes are the sweep dimensions.
	CampaignAxes = campaign.Axes
	// CampaignPoint is one cell of the sweep grid.
	CampaignPoint = campaign.Point
	// CampaignResult is one grid point's measurements.
	CampaignResult = campaign.Result
	// CampaignResults is the ordered result set, with WriteJSON and
	// WriteCSV emitters.
	CampaignResults = campaign.Results
)

// RunCampaign executes the sweep and returns one result row per grid
// point in deterministic order, independent of worker count.
func RunCampaign(c Campaign) CampaignResults { return campaign.Run(c) }

// RunCampaignContext is RunCampaign with cancellation: when ctx is
// cancelled no new grid points start, in-flight simulations finish,
// and the call returns the partial results along with ctx's error.
// The Campaign's Progress callback fires monotonically throughout.
func RunCampaignContext(ctx context.Context, c Campaign) (CampaignResults, error) {
	return campaign.RunContext(ctx, c)
}

// CampaignSeeds returns n consecutive seeds starting at base — the
// "average over seeded repetitions" axis.
func CampaignSeeds(base int64, n int) []int64 { return campaign.Seeds(base, n) }

// NamedCampaignWorkload returns the standard traffic pattern for a
// workload kind ("download", "upload", "mixed") — the vocabulary
// scenario registry entries use (see ScenarioWorkload).
func NamedCampaignWorkload(kind string) (func(n *Network, pt CampaignPoint), error) {
	return campaign.NamedWorkload(kind)
}

// Results subsystem: aggregation, baselines, regression detection.
type (
	// ResultsTable is a typed results table built from campaign rows
	// (or re-loaded from the CSV/JSON emitters' output), ready for
	// group-by aggregation.
	ResultsTable = results.Table
	// Baseline is a persisted aggregation used as a regression
	// reference.
	Baseline = results.Baseline
	// Tolerance bounds one metric's allowed movement in its worse
	// direction before CompareBaseline flags a regression.
	Tolerance = results.Tolerance
)

// NewResultsTable builds a ResultsTable from campaign rows.
func NewResultsTable(rs CampaignResults) *ResultsTable { return results.FromResults(rs) }

// Results-layer helpers, re-exported for CLIs and scripts: CSV/JSON
// table loaders, the metric schema, baseline persistence, the default
// per-metric tolerances, and the comparison engine.
var (
	ReadResultsCSV       = results.ReadCSV
	ReadResultsJSON      = results.ReadJSON
	ResultsScalarMetrics = results.ScalarMetrics
	NewBaseline          = results.NewBaseline
	SaveBaselineFile     = results.SaveBaselineFile
	LoadBaselineFile     = results.LoadBaselineFile
	DefaultTolerances    = results.DefaultTolerances
	CompareBaseline      = results.Compare
)

// HACK modes.
const (
	ModeOff           = hack.ModeOff
	ModeMoreData      = hack.ModeMoreData
	ModeOpportunistic = hack.ModeOpportunistic
	ModeTimer         = hack.ModeTimer
)

// Time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewNetwork assembles a network from cfg.
func NewNetwork(cfg NetworkConfig) *Network { return node.New(cfg) }

// ParseMode resolves a HACK mode by its command-line name: "off"
// (ModeOff), "more-data" (ModeMoreData), "opportunistic"
// (ModeOpportunistic) or "timer" (ModeTimer).
func ParseMode(s string) (Mode, error) { return hack.ParseMode(s) }

// ParseRateAdapter validates a rate-adapter spec ("fixed",
// "fixed:<rate>", "ideal", "argmax", "minstrel") — the string WithRateAdapter
// and CampaignAxes.Adapters accept. CLIs call it to reject bad specs
// before network construction (which panics on them).
func ParseRateAdapter(s string) error {
	_, err := mac.ParseAdapterSpec(s)
	return err
}

// Rate54Mbps is the top 802.11a rate (the SoRa testbed's setting).
var Rate54Mbps = phy.RateA54

// HTRate returns the 802.11n rate for an MCS index (0–7) and spatial
// stream count (1–4) at 40 MHz / 400 ns GI; HTRate(7, 1) is the
// paper's 150 Mbps configuration.
func HTRate(mcs, streams int) Rate { return phy.HTRate(mcs, streams) }

// Regression directions for Tolerance.Worse: goodput-like metrics
// regress downward, error counters upward.
const (
	LowerIsWorse  = results.LowerIsWorse
	HigherIsWorse = results.HigherIsWorse
)

// Experiment runners (one per table/figure in the paper), each
// executing its scenario grid as a parallel campaign.
var (
	Fig1a           = experiments.Fig1a
	Fig1b           = experiments.Fig1b
	Fig9            = experiments.Fig9
	Fig10           = experiments.Fig10
	Fig11           = experiments.Fig11
	Fig12           = experiments.Fig12
	Table2          = experiments.Table2
	Table3          = experiments.Table3
	CrossValidation = experiments.CrossValidation
	// LossResilience runs the loss × mode × adapter grid that
	// exercises the HACK recovery state machine under uniform frame
	// loss (every cell must report zero ROHC decompression failures).
	LossResilience = experiments.LossResilience
)

// Observability: flight-recorder tracing and the airtime ledger
// (internal/trace). A Tracer attached via WithTracer (or
// NetworkConfig.Tracer / Campaign.Trace) observes every layer of a
// simulation — PHY transmissions and collisions, MAC frame fates and
// NAV, HACK driver state transitions, ROHC packet forms, TCP loss
// events — without perturbing it: tracing is determinism-neutral by
// construction, and a nil tracer costs one pointer check per probe.
type (
	// Tracer receives every simulation event through its one method,
	// Emit(TraceEvent); internal/trace's package doc lists each event
	// kind and the layer that emits it. Implementations must only
	// observe — never schedule events, consume simulation randomness,
	// or mutate protocol state.
	Tracer = trace.Tracer
	// TraceEvent is one probe event in the flight-recorder schema.
	TraceEvent = trace.Event
	// TraceRecorder is a bounded in-memory ring of the most recent
	// trace events.
	TraceRecorder = trace.Recorder
	// TraceWriter streams trace events as JSONL to an io.Writer.
	TraceWriter = trace.Writer
	// AirtimeLedger is a Tracer that accounts every nanosecond of
	// medium time into per-station usage buckets from the medium's
	// tx_start and tx_end events.
	AirtimeLedger = trace.AirtimeLedger
	// AirtimeReport is a settled snapshot of an AirtimeLedger.
	AirtimeReport = trace.AirtimeReport
	// AirtimeBuckets splits airtime into data / wifi-ACK / BAR /
	// TCP-ACK / retry components.
	AirtimeBuckets = trace.Buckets
)

// WithTracer attaches a Tracer to every layer of the scenario's
// network (PHY/channel, MAC, HACK driver, ROHC, TCP).
var WithTracer = scenario.WithTracer

// NewTraceRecorder returns a flight recorder retaining the most
// recent capacity events (65536 when capacity <= 0).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// NewTraceWriter returns a Tracer that streams every event to w as
// JSONL; call Close to flush (and close w if it is an io.Closer).
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewAirtimeLedger returns an airtime-accounting Tracer. It reads only
// the medium's events, so attach it to the built network's medium —
// n.Medium.Tracer = TraceMulti(n.Medium.Tracer, ledger), as
// Campaign.Airtime does — and call Snapshot at the end of the run.
func NewAirtimeLedger() *AirtimeLedger { return trace.NewAirtimeLedger() }

// TraceMulti fans events out to several tracers (nils are dropped;
// returns nil when none remain).
func TraceMulti(trs ...Tracer) Tracer { return trace.Multi(trs...) }

// ValidateTraceJSONL schema-checks a JSONL trace stream and returns
// the number of events read.
func ValidateTraceJSONL(r io.Reader) (int, error) { return trace.ValidateJSONL(r) }
