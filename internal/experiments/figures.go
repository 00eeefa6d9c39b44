package experiments

import (
	"tcphack/internal/analytical"
	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/results"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// ht150Base builds the §4.3 ns-3 scenario via the builder: 802.11n at
// 150 Mbps data / 24 Mbps LL ACKs, A-MPDU aggregation under a 4 ms
// TXOP, a 500 Mbps 1 ms wire to the server, and an AP queue of 126
// packets per flow.
func ht150Base(mode hack.Mode) node.Config {
	return scenario.New(scenario.With80211n(), scenario.WithMode(mode))
}

// Fig10Row is one bar group of Figure 10.
type Fig10Row struct {
	Clients       int
	Protocol      string // "UDP", "HACK MoreData", "Opp. HACK", "TCP"
	AggregateMbps float64
	StdDev        float64
	// GainOverTCPPct is this protocol's gain over the same-row stock
	// TCP (filled for the HACK rows).
	GainOverTCPPct float64
}

// Fig10Protocols lists Figure 10's transmission schemes.
var Fig10Protocols = []struct {
	Name string
	Mode hack.Mode
	UDP  bool
}{
	{"UDP", hack.ModeOff, true},
	{"HACK MoreData", hack.ModeMoreData, false},
	{"Opp. HACK", hack.ModeOpportunistic, false},
	{"TCP", hack.ModeOff, false},
}

// Fig10 reproduces Figure 10: aggregate steady-state goodput for
// 1/2/4/10 clients under UDP, TCP/HACK (MORE DATA), opportunistic
// HACK, and stock TCP on the 150 Mbps 802.11n network. Each
// protocol's {clients × seeds} grid runs as one parallel campaign;
// seeded repetitions aggregate through the results layer, whose
// per-group deviation becomes the figure's error bars.
func Fig10(o Options, clientCounts []int) []Fig10Row {
	o = o.withDefaults()
	if clientCounts == nil {
		clientCounts = []int{1, 2, 4, 10}
	}
	byProto := make(map[string]*results.Agg, len(Fig10Protocols))
	for _, proto := range Fig10Protocols {
		spec := o.spec("fig10-"+proto.Name, ht150Base(proto.Mode))
		spec.Axes = campaign.Axes{
			Clients: clientCounts,
			Seeds:   campaign.Seeds(o.Seed, o.Runs),
		}
		udp := proto.UDP
		spec.Workload = func(n *node.Network, pt campaign.Point) {
			for ci := 0; ci < pt.Clients; ci++ {
				stagger := sim.Duration(ci) * 100 * sim.Millisecond
				if udp {
					n.StartUDPDownload(ci, 160_000/pt.Clients+8_000, 1500, stagger)
				} else {
					n.StartDownload(ci, 0, stagger)
				}
			}
		}
		agg, err := results.FromResults(campaign.Run(spec)).Aggregate("clients")
		if err != nil {
			panic(err) // static group-by column
		}
		byProto[proto.Name] = agg
	}

	var rows []Fig10Row
	for _, clients := range clientCounts {
		key := results.Num(float64(clients))
		tcp := byProto["TCP"].MeanAt("aggregate_mbps", key)
		for _, proto := range Fig10Protocols {
			st, _ := byProto[proto.Name].StatAt("aggregate_mbps", key)
			row := Fig10Row{
				Clients: clients, Protocol: proto.Name,
				AggregateMbps: st.Mean, StdDev: st.StdDev,
			}
			if proto.Name != "TCP" && tcp > 0 {
				row.GainOverTCPPct = (st.Mean - tcp) / tcp * 100
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// Fig11Result carries the per-SNR goodput curves and the rate adapter
// ("ideal", "minstrel") that produced them, one simulation per SNR
// point.
type Fig11Result struct {
	Method string
	// EnvelopeTCP/EnvelopeHACK map SNR → goodput under rate
	// adaptation, per protocol.
	EnvelopeTCP  map[float64]float64
	EnvelopeHACK map[float64]float64
	// MeanImprovementPct is HACK's average envelope gain (paper: 12.6%).
	MeanImprovementPct float64
}

// Fig11 reproduces Figure 11 with in-simulation rate adaptation: one
// client downloads at each SNR with every station running the named
// rate adapter, so the whole figure is one {mode × SNR} campaign — one
// simulation per SNR point instead of one per (rate, SNR) cell.
// "ideal" is the threshold oracle (mac.IdealRate, one rate per SNR)
// the paper's "ideal rate adaptation" assumes; "minstrel" is the
// Minstrel-style learner. rates bounds the hopeless-point pruning
// (nil: the single-stream HT ladder, which is also the adapters'
// candidate set). The paper's fixed-rate-sweep-plus-envelope method
// is the reference in TestFig11AdapterMatchesEnvelope.
func Fig11(o Options, snrsDB []float64, rates []phy.Rate, adapter string) Fig11Result {
	o = o.withDefaults()
	if snrsDB == nil {
		snrsDB = []float64{0, 5, 10, 15, 20, 25, 30}
	}
	if rates == nil {
		rates = phy.RatesHT40SGI1()
	}
	base := ht150Base(hack.ModeOff)
	base.AckRate = phy.Rate{} // basic-rate rules per eliciting frame
	base.RateAdapter = adapter
	spec := o.spec("fig11-"+adapter, base)
	spec.Axes = campaign.Axes{
		Modes:  []hack.Mode{hack.ModeOff, hack.ModeMoreData},
		SNRsDB: snrsDB,
		Seeds:  []int64{o.Seed},
	}
	// Skip SNRs where even the most robust candidate rate cannot
	// decode a Block ACK sized frame: goodput is 0 at every rate.
	lowest := rates[0]
	spec.Skip = func(pt campaign.Point) bool {
		return channel.FrameErrorRate(lowest, pt.SNRdB, 1538) > 0.999
	}
	spec.Workload = func(n *node.Network, pt campaign.Point) {
		n.StartDownload(0, 0, 0)
	}
	agg, err := results.FromResults(campaign.Run(spec)).Aggregate("mode", "snr_db")
	if err != nil {
		panic(err) // static group-by columns
	}

	res := Fig11Result{
		Method:       adapter,
		EnvelopeTCP:  make(map[float64]float64),
		EnvelopeHACK: make(map[float64]float64),
	}
	for _, snr := range snrsDB {
		key := results.Num(snr)
		res.EnvelopeTCP[snr] = agg.MeanAt("aggregate_mbps", hack.ModeOff.String(), key)
		res.EnvelopeHACK[snr] = agg.MeanAt("aggregate_mbps", hack.ModeMoreData.String(), key)
	}
	// The mean HACK-over-TCP gain counts usable SNRs only.
	var gains, count float64
	for _, snr := range snrsDB {
		tcp, hck := res.EnvelopeTCP[snr], res.EnvelopeHACK[snr]
		if tcp > 1 {
			gains += float64((hck - tcp) / tcp * 100)
			count++
		}
	}
	if count > 0 {
		res.MeanImprovementPct = gains / count
	}
	return res
}

// Fig12Row compares theory and simulation at one PHY rate.
type Fig12Row struct {
	Rate        phy.Rate
	TheoryTCP   float64
	TheoryHACK  float64
	SimTCP      float64
	SimHACK     float64
	SimGainPct  float64
	TheoGainPct float64
}

// Fig12 reproduces Figure 12: analytical predictions versus simulated
// goodput at each 802.11n rate (lossless channel, best case — the
// paper extracts the best point per rate from the Figure 11 sweep).
// The {mode × rate} grid is one parallel campaign.
func Fig12(o Options, rates []phy.Rate) []Fig12Row {
	o = o.withDefaults()
	if rates == nil {
		rates = phy.RatesHT40SGI1()
	}
	p := analytical.Defaults()
	base := ht150Base(hack.ModeOff)
	base.AckRate = phy.Rate{}
	spec := o.spec("fig12", base)
	spec.Axes = campaign.Axes{
		Modes: []hack.Mode{hack.ModeOff, hack.ModeMoreData},
		Rates: rates,
		Seeds: []int64{o.Seed},
	}
	spec.Workload = func(n *node.Network, pt campaign.Point) {
		n.StartDownload(0, 0, 0)
	}
	agg, err := results.FromResults(campaign.Run(spec)).Aggregate("mode", "rate_kbps")
	if err != nil {
		panic(err) // static group-by columns
	}

	goodput := func(mode hack.Mode, rate phy.Rate) float64 {
		return agg.MeanAt("aggregate_mbps", mode.String(), results.Num(float64(rate.Kbps)))
	}

	var rows []Fig12Row
	for _, rate := range rates {
		simTCP := goodput(hack.ModeOff, rate)
		simHACK := goodput(hack.ModeMoreData, rate)
		thTCP := p.Goodput80211n(rate, analytical.ModeTCP)
		thHACK := p.Goodput80211n(rate, analytical.ModeHACK)
		row := Fig12Row{
			Rate: rate, TheoryTCP: thTCP, TheoryHACK: thHACK,
			SimTCP: simTCP, SimHACK: simHACK,
			TheoGainPct: (thHACK - thTCP) / thTCP * 100,
		}
		if simTCP > 0 {
			row.SimGainPct = (simHACK - simTCP) / simTCP * 100
		}
		rows = append(rows, row)
	}
	return rows
}
