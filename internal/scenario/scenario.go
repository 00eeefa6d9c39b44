package scenario

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// Option mutates a node.Config under construction.
type Option func(*node.Config)

// New builds a configuration from options, starting from the shared
// baseline every preset assumes: seed 1, one client, and the paper's
// 126-packet AP queue. Remaining zero fields pick up node.Config's own
// defaults when the network is assembled.
func New(opts ...Option) node.Config {
	cfg := node.Config{
		Seed:         1,
		Clients:      1,
		APQueueLimit: 126,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// With80211n applies the paper's §4.3 simulation preset: 150 Mbps
// 802.11n (MCS 7, one stream) with A-MPDU aggregation under a 4 ms
// TXOP, 24 Mbps link-layer ACKs, and a 500 Mbps / 1 ms wired backhaul
// to the TCP server.
func With80211n() Option {
	return func(c *node.Config) {
		c.DataRate = phy.HTRate(7, 1)
		c.AckRate = phy.RateA24
		c.Aggregation = true
		c.TXOPLimit = 4 * sim.Millisecond
		c.WireRateKbps = 500_000
		c.WireDelay = sim.Millisecond
	}
}

// WithSoRa applies the paper's §4.1 testbed preset: 802.11a at
// 54 Mbps, the AP as TCP sender (ad-hoc mode, no wire), and SoRa's
// 37 µs late link-layer ACKs with a widened ACK timeout.
func WithSoRa() Option {
	return func(c *node.Config) {
		c.DataRate = phy.RateA54
		c.AckRate = phy.Rate{}
		c.Aggregation = false
		c.TXOPLimit = 0
		c.WireRateKbps = 0
		c.WireDelay = 0
		c.AckTurnaround = 37 * sim.Microsecond
		c.AckTimeoutSlack = 80 * sim.Microsecond
	}
}

// WithMode selects the HACK ACK-holding policy (hack.ModeOff = stock).
func WithMode(m hack.Mode) Option {
	return func(c *node.Config) { c.Mode = m }
}

// WithClients sets the number of WiFi clients.
func WithClients(n int) Option {
	return func(c *node.Config) { c.Clients = n }
}

// WithSeed sets the RNG seed.
func WithSeed(s int64) Option {
	return func(c *node.Config) { c.Seed = s }
}

// WithRate sets the PHY data rate and leaves the LL ACK rate to the
// 802.11 control-response rules.
func WithRate(r phy.Rate) Option {
	return func(c *node.Config) {
		c.DataRate = r
		c.AckRate = phy.Rate{}
	}
}

// WithRateAdapter selects per-station rate adaptation by spec:
// "fixed" (pin the scenario's data rate — the default), "fixed:<rate>"
// (pin a named rate, e.g. "fixed:mcs3"), "ideal" (negligible-FER
// threshold oracle from the channel's SNR→rate tables), "argmax"
// (expected-goodput argmax oracle over the same tables — the regime
// that needs the loss-resilient HACK recovery), or "minstrel"
// (sampling adapter).
// Invalid specs panic when the network is assembled; CLIs should
// pre-validate with mac.ParseAdapterSpec.
func WithRateAdapter(spec string) Option {
	return func(c *node.Config) { c.RateAdapter = spec }
}

// addErrorModel layers em onto any model already installed: multiple
// loss sources act as independent processes (channel.Independent), so
// e.g. WithSNR + WithUniformLoss simulate both.
func addErrorModel(c *node.Config, em channel.ErrorModel) {
	if c.Err == nil {
		c.Err = em
		return
	}
	c.Err = channel.Independent(c.Err, em)
}

// WithUniformLoss applies a uniform per-frame loss probability on
// every link (0 ≤ p < 1), composing with any error model already
// installed.
func WithUniformLoss(p float64) Option {
	return func(c *node.Config) { addErrorModel(c, &channel.FixedLoss{Default: p}) }
}

// WithSNR fixes the SNR of every link in dB via the SNR error model
// (the Figure 11 x-axis), composing with any error model already
// installed.
func WithSNR(db float64) Option {
	return func(c *node.Config) { addErrorModel(c, &channel.SNRModel{SNRDB: db}) }
}

// GridPos returns the position of client i on a √n×√n row-major grid
// with the given spacing in metres, centred on the AP at the origin.
// It is the dense-deployment topology the N-scaling benchmarks use:
// unlike the default 10 m circle, station density grows with n, so
// every station stays within carrier-sense range of the rest.
func GridPos(n int, spacing float64, i int) channel.Pos {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	off := float64(spacing * float64(side-1) / 2)
	return channel.Pos{
		X: float64(spacing*float64(i%side)) - off,
		Y: float64(spacing*float64(i/side)) - off,
	}
}

// WithGrid configures n clients on a √n×√n grid with the given spacing
// in metres (see GridPos) — the topology for large-N scaling runs.
func WithGrid(n int, spacing float64) Option {
	return func(c *node.Config) {
		c.Clients = n
		c.ClientPos = func(i int) channel.Pos { return GridPos(n, spacing, i) }
	}
}

// WithWire sets the server—AP wired backhaul (rateKbps 0 disables the
// server; the AP then hosts the TCP senders).
func WithWire(rateKbps int, delay sim.Duration) Option {
	return func(c *node.Config) {
		c.WireRateKbps = rateKbps
		c.WireDelay = delay
	}
}

// WithConfig overlays fn's arbitrary edits — the escape hatch for
// fields without a dedicated option.
func WithConfig(fn func(*node.Config)) Option {
	return Option(fn)
}

// WithTracer attaches tr to every layer of the assembled network
// (channel, MAC, HACK driver, TCP). Tracing is determinism-neutral:
// the run's RNG streams, event order, and results are byte-identical
// with or without a tracer attached.
func WithTracer(tr trace.Tracer) Option {
	return func(c *node.Config) { c.Tracer = tr }
}

// Entry is one named scenario in the registry.
type Entry struct {
	Name string
	Desc string
	// Workload names the entry's traffic pattern in
	// campaign.NamedWorkload's vocabulary ("download", "upload",
	// "mixed"); empty means the default download workload. The
	// scenario config itself only shapes the network — the workload
	// kind rides along so CLIs start the right flows.
	Workload string
	opts     []Option
}

// Config builds the entry's configuration, applying extra options on
// top (e.g. a client count or seed).
func (e Entry) Config(extra ...Option) node.Config {
	return New(append(append([]Option{}, e.opts...), extra...)...)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Entry{}
)

// Register names a scenario built from opts. Registering an existing
// name replaces it.
func Register(name, desc string, opts ...Option) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = Entry{Name: name, Desc: desc, opts: opts}
}

// RegisterWorkload names a scenario whose traffic pattern differs from
// the default download workload — workload is "upload" or "mixed" (see
// Entry.Workload). Registering an existing name replaces it.
func RegisterWorkload(name, desc, workload string, opts ...Option) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = Entry{Name: name, Desc: desc, Workload: workload, opts: opts}
}

// WorkloadOf returns the named scenario's workload kind ("" for the
// default download workload or an unknown name).
func WorkloadOf(name string) string {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[name].Workload
}

// Lookup returns the named scenario entry.
func Lookup(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// All returns registered entries sorted by name.
func All() []Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	entries := make([]Entry, 0, len(registry))
	for _, e := range registry {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

func init() {
	presets := []struct {
		prefix, desc string
		opt          func() Option
	}{
		{"ht150", "150 Mbps 802.11n with A-MPDU aggregation and wired backhaul (§4.3)", With80211n},
		{"sora", "802.11a @54 Mbps SoRa testbed model, AP-resident sender (§4.1)", WithSoRa},
	}
	modes := []struct {
		suffix string
		mode   hack.Mode
	}{
		{"stock", hack.ModeOff},
		{"moredata", hack.ModeMoreData},
		{"opportunistic", hack.ModeOpportunistic},
		{"timer", hack.ModeTimer},
	}
	for _, p := range presets {
		for _, m := range modes {
			Register(
				fmt.Sprintf("%s-%s", p.prefix, m.suffix),
				fmt.Sprintf("%s, HACK mode %v", p.desc, m.mode),
				p.opt(), WithMode(m.mode),
			)
		}
	}
	// Traffic-direction variants of the 802.11n scenario: the paper's
	// motivating upload case (wireless backup to LAN storage, §3.1)
	// and a mixed up/down workload. Mode stays stock so -sweep-modes
	// and WithMode choose the protocol.
	RegisterWorkload("ht150-upload",
		"150 Mbps 802.11n, clients uploading to the wired server (wireless backup, §3.1)",
		"upload", With80211n())
	RegisterWorkload("ht150-mixed",
		"150 Mbps 802.11n, mixed workload: clients alternate download/upload",
		"mixed", With80211n())
	// Rate-adaptive variants of the 802.11n scenarios: the same preset
	// with a per-station adapter instead of the pinned 150 Mbps rate.
	for _, m := range []struct {
		suffix string
		mode   hack.Mode
	}{{"stock", hack.ModeOff}, {"moredata", hack.ModeMoreData}} {
		for _, a := range []string{"minstrel", "ideal", "argmax"} {
			Register(
				fmt.Sprintf("ht150-%s-%s", m.suffix, a),
				fmt.Sprintf("802.11n with %s rate adaptation, HACK mode %v", a, m.mode),
				With80211n(), WithMode(m.mode), WithRateAdapter(a),
			)
		}
	}
}
