package experiments

import (
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// quick keeps experiment smoke tests fast; the bench harness runs the
// full windows.
var quick = Options{Warmup: 1 * sim.Second, Measure: 1 * sim.Second, Runs: 1, Seed: 1}

func TestFig1aShape(t *testing.T) {
	rows := Fig1a()
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if !(r.TCPMbps < r.HACKMbps && r.HACKMbps < r.UDPMbps) {
			t.Errorf("%v: ordering broken (%.1f/%.1f/%.1f)", r.Rate, r.TCPMbps, r.HACKMbps, r.UDPMbps)
		}
	}
	// At 54 Mbps: TCP ≈24, HACK ≈29 (§2.1-derived).
	last := rows[len(rows)-1]
	if last.TCPMbps < 22 || last.TCPMbps > 25 || last.HACKMbps < 27 || last.HACKMbps > 30 {
		t.Errorf("54 Mbps row: tcp=%.1f hack=%.1f", last.TCPMbps, last.HACKMbps)
	}
}

func TestFig1bShape(t *testing.T) {
	rows := Fig1b()
	if len(rows) != 32 {
		t.Fatalf("%d rows, want 32 (8 MCS × 4 streams)", len(rows))
	}
	// Gain at 600 Mbps ≈ 20% (paper Figure 1b).
	top := rows[len(rows)-1]
	if top.Rate.Kbps != 600000 {
		t.Fatalf("last row rate %v", top.Rate)
	}
	if top.GainPct < 15 || top.GainPct > 25 {
		t.Errorf("gain@600 = %.1f%%, want ≈20%%", top.GainPct)
	}
}

func TestFig9Shape(t *testing.T) {
	cells := Fig9(quick)
	if len(cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cells))
	}
	byKey := map[string]Fig9Cell{}
	for _, c := range cells {
		byKey[c.Protocol+string(rune('0'+c.Clients))] = c
	}
	// Ordering per the paper: UDP > HACK > TCP for each client count.
	for _, k := range []string{"1", "2"} {
		udp, hck, tcp := byKey["UDP"+k], byKey["HACK"+k], byKey["TCP"+k]
		if !(udp.TotalMbps > hck.TotalMbps && hck.TotalMbps > tcp.TotalMbps) {
			t.Errorf("clients=%s ordering: udp=%.1f hack=%.1f tcp=%.1f",
				k, udp.TotalMbps, hck.TotalMbps, tcp.TotalMbps)
		}
		// Table 1's shape: HACK retries ≪ TCP retries.
		if hck.NoRetryPct <= tcp.NoRetryPct {
			t.Errorf("clients=%s no-retry%%: hack=%.1f tcp=%.1f (want hack higher)",
				k, hck.NoRetryPct, tcp.NoRetryPct)
		}
	}
	// HACK's gain over stock in the paper: 29% (one client), 32% (two).
	gain1 := (byKey["HACK1"].TotalMbps - byKey["TCP1"].TotalMbps) / byKey["TCP1"].TotalMbps * 100
	if gain1 < 10 || gain1 > 45 {
		t.Errorf("one-client HACK gain = %.1f%%, want ≈29%%", gain1)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(quick, 4<<20) // 4 MB keeps the test quick
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	tcp, hck := rows[0], rows[1]
	if tcp.CompressedAcks != 0 {
		t.Errorf("stock TCP compressed %d ACKs", tcp.CompressedAcks)
	}
	if tcp.NativeAcks == 0 {
		t.Error("stock TCP sent no ACKs")
	}
	// HACK: virtually all ACKs compressed; ratio ≈ 12 (paper Table 2).
	if hck.CompressedAcks < 9*hck.NativeAcks {
		t.Errorf("HACK: %d compressed vs %d native, want compressed ≫ native",
			hck.CompressedAcks, hck.NativeAcks)
	}
	// The paper reports ≈12× on its 25 MB steady run; a short 4 MB run
	// carries more recovery-phase ACKs with explicit (larger) deltas,
	// landing lower. The steady-state encoder ratio is covered by the
	// rohc unit tests.
	if hck.CompressionRatio < 6 || hck.CompressionRatio > 16 {
		t.Errorf("compression ratio = %.1f, want ≈8-12", hck.CompressionRatio)
	}
}

func TestTable3Shape(t *testing.T) {
	rows := Table3(quick, 4<<20)
	tcp, hck := rows[0].Breakdown, rows[1].Breakdown
	// Paper Table 3: stock TCP's channel-acquisition and LL ACK
	// overheads dwarf HACK's by orders of magnitude.
	if hck.ChannelWait*10 > tcp.ChannelWait {
		t.Errorf("channel wait: hack=%v tcp=%v, want ≫10× reduction",
			hck.ChannelWait, tcp.ChannelWait)
	}
	if hck.TCPAckAir*10 > tcp.TCPAckAir {
		t.Errorf("ACK airtime: hack=%v tcp=%v", hck.TCPAckAir, tcp.TCPAckAir)
	}
	if hck.ROHCAir == 0 {
		t.Error("HACK spent no time on compressed ACKs")
	}
	if tcp.ROHCAir != 0 {
		t.Error("stock TCP has ROHC airtime")
	}
}

func TestCrossValidationShape(t *testing.T) {
	rows := CrossValidation(quick)
	for _, r := range rows {
		// SoRa mode must cost throughput; removing the delay must
		// recover most of the gap (paper §4.2: 19.6→22 vs 22.4 ideal).
		if r.SoRaModeMbps >= r.IdealMbps {
			t.Errorf("%s: SoRa mode (%.1f) not below ideal (%.1f)", r.Protocol, r.SoRaModeMbps, r.IdealMbps)
		}
		gapBefore := r.IdealMbps - r.SoRaModeMbps
		gapAfter := r.IdealMbps - r.RecoveredMbps
		if gapAfter > gapBefore*0.7 {
			t.Errorf("%s: recovery closed too little (%.1f→%.1f vs ideal %.1f)",
				r.Protocol, r.SoRaModeMbps, r.RecoveredMbps, r.IdealMbps)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows := Fig10(quick, []int{1, 2})
	if len(rows) != 8 {
		t.Fatalf("rows %d, want 8", len(rows))
	}
	get := func(clients int, proto string) Fig10Row {
		for _, r := range rows {
			if r.Clients == clients && r.Protocol == proto {
				return r
			}
		}
		t.Fatalf("missing row %d/%s", clients, proto)
		return Fig10Row{}
	}
	for _, c := range []int{1, 2} {
		udp := get(c, "UDP")
		hck := get(c, "HACK MoreData")
		tcp := get(c, "TCP")
		if !(udp.AggregateMbps > hck.AggregateMbps && hck.AggregateMbps > tcp.AggregateMbps) {
			t.Errorf("clients=%d: udp=%.1f hack=%.1f tcp=%.1f (paper ordering broken)",
				c, udp.AggregateMbps, hck.AggregateMbps, tcp.AggregateMbps)
		}
		// Paper: 15–22% gains for MORE DATA HACK.
		if hck.GainOverTCPPct < 8 || hck.GainOverTCPPct > 30 {
			t.Errorf("clients=%d: HACK gain %.1f%%, want ≈15-22%%", c, hck.GainOverTCPPct)
		}
		// Opportunistic ≈ stock (the paper's surprise finding): no
		// dramatic gain.
		opp := get(c, "Opp. HACK")
		if opp.GainOverTCPPct > hck.GainOverTCPPct {
			t.Errorf("clients=%d: opportunistic (%.1f%%) beat MORE DATA (%.1f%%)",
				c, opp.GainOverTCPPct, hck.GainOverTCPPct)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	res := Fig11(quick, []float64{10, 25}, nil, "ideal")
	// Envelope must grow with SNR.
	if res.EnvelopeTCP[25] <= res.EnvelopeTCP[10] {
		t.Errorf("TCP envelope not increasing: %v", res.EnvelopeTCP)
	}
	// HACK envelope above TCP envelope at usable SNRs.
	for _, snr := range []float64{10, 25} {
		if res.EnvelopeHACK[snr] <= res.EnvelopeTCP[snr] {
			t.Errorf("snr=%v: hack=%.1f ≤ tcp=%.1f",
				snr, res.EnvelopeHACK[snr], res.EnvelopeTCP[snr])
		}
	}
	if res.MeanImprovementPct < 5 || res.MeanImprovementPct > 30 {
		t.Errorf("mean improvement %.1f%%, want ≈12.6%%", res.MeanImprovementPct)
	}
}

// fixedRateEnvelope is the paper's own Figure 11 method: sweep SNR ×
// every fixed single-stream HT rate and take, per SNR and protocol, the
// best goodput as what an ideal rate-adaptation algorithm would
// achieve. It multiplies the grid by the rate count, so Fig11 runs the
// IdealSNR adapter instead and this stays as its reference.
func fixedRateEnvelope(o Options, snrsDB []float64) (tcp, hck map[float64]float64) {
	base := ht150Base(hack.ModeOff)
	base.AckRate = phy.Rate{} // basic-rate rules per eliciting frame
	spec := o.withDefaults().spec("fig11-envelope", base)
	spec.Axes = campaign.Axes{
		Modes:  []hack.Mode{hack.ModeOff, hack.ModeMoreData},
		Rates:  phy.RatesHT40SGI1(),
		SNRsDB: snrsDB,
		Seeds:  []int64{o.Seed},
	}
	// Skip hopeless (rate, SNR) pairs cheaply: if even a Block ACK
	// sized frame fails with near-certainty, goodput is 0.
	spec.Skip = func(pt campaign.Point) bool {
		return channel.FrameErrorRate(pt.Rate, pt.SNRdB, 1538) > 0.999
	}
	spec.Workload = func(n *node.Network, pt campaign.Point) {
		n.StartDownload(0, 0, 0)
	}
	tcp, hck = make(map[float64]float64), make(map[float64]float64)
	for _, r := range campaign.Run(spec) {
		best := tcp
		if r.Mode == hack.ModeMoreData {
			best = hck
		}
		best[r.SNRdB] = max(best[r.SNRdB], r.AggregateMbps)
	}
	return tcp, hck
}

// TestFig11AdapterMatchesEnvelope cross-validates the reworked Figure
// 11 against the fixed-rate envelope it replaced: at usable SNRs the
// IdealSNR adapter (one simulation per SNR) must land within 10% of
// the envelope, and the stock-vs-HACK ordering must be preserved.
func TestFig11AdapterMatchesEnvelope(t *testing.T) {
	snrs := []float64{25, 30}
	adaptive := Fig11(quick, snrs, nil, "ideal")
	envTCP, envHACK := fixedRateEnvelope(quick, snrs)
	if adaptive.Method != "ideal" {
		t.Fatalf("method: %q", adaptive.Method)
	}
	for _, snr := range snrs {
		for _, c := range []struct {
			proto   string
			ad, env float64
		}{
			{proto: "TCP", ad: adaptive.EnvelopeTCP[snr], env: envTCP[snr]},
			{proto: "HACK", ad: adaptive.EnvelopeHACK[snr], env: envHACK[snr]},
		} {
			if c.env <= 0 {
				t.Fatalf("%s envelope empty at %v dB", c.proto, snr)
			}
			if diff := (c.ad - c.env) / c.env; diff < -0.10 {
				t.Errorf("snr=%v %s: adapter %.1f Mbps is %.1f%% below envelope %.1f Mbps",
					snr, c.proto, c.ad, -diff*100, c.env)
			}
		}
		if adaptive.EnvelopeHACK[snr] <= adaptive.EnvelopeTCP[snr] {
			t.Errorf("snr=%v: adapter path lost the HACK>TCP ordering (%.1f vs %.1f)",
				snr, adaptive.EnvelopeHACK[snr], adaptive.EnvelopeTCP[snr])
		}
	}
}

// TestFig11MinstrelUsable: the Minstrel variant of the reworked
// figure must stay in the same ballpark as the oracle at a clean
// operating point (it pays for probes and learning).
func TestFig11MinstrelUsable(t *testing.T) {
	snrs := []float64{30}
	oracle := Fig11(quick, snrs, nil, "ideal")
	minstrel := Fig11(quick, snrs, nil, "minstrel")
	for _, m := range []map[float64]float64{minstrel.EnvelopeTCP, minstrel.EnvelopeHACK} {
		if m[30] <= 0 {
			t.Fatalf("minstrel produced no goodput: %v", minstrel)
		}
	}
	if minstrel.EnvelopeTCP[30] < oracle.EnvelopeTCP[30]*0.85 {
		t.Errorf("minstrel TCP %.1f Mbps ≪ oracle %.1f Mbps at 30 dB",
			minstrel.EnvelopeTCP[30], oracle.EnvelopeTCP[30])
	}
}

func TestFig12Shape(t *testing.T) {
	rows := Fig12(quick, nil)
	if len(rows) != 8 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		// Simulated goodput at or below theory (collisions, TCP
		// dynamics); allow 5% modelling slack on the approximate
		// analytical curves.
		if r.SimTCP >= r.TheoryTCP*1.05 {
			t.Errorf("%v: sim TCP %.1f ≥ theory %.1f", r.Rate, r.SimTCP, r.TheoryTCP)
		}
		if r.SimHACK >= r.TheoryHACK*1.05 {
			t.Errorf("%v: sim HACK %.1f ≥ theory %.1f", r.Rate, r.SimHACK, r.TheoryHACK)
		}
	}
	// Paper: at 150 Mbps the simulated gain (14%) exceeds the
	// analytical prediction (7%) because HACK also removes collisions.
	top := rows[len(rows)-1]
	if top.SimGainPct <= top.TheoGainPct {
		t.Errorf("sim gain %.1f%% ≤ theory gain %.1f%% at 150 Mbps; paper finds the opposite",
			top.SimGainPct, top.TheoGainPct)
	}
}
