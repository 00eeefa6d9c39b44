package analytical

import (
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

func TestBatchSizeMatchesPaper(t *testing.T) {
	p := Defaults()
	// Paper §4.3: "batches of 42 packets" at 150 Mbps (64 KB bound).
	if n := p.BatchSize(phy.HTRate(7, 1)); n != 42 {
		t.Errorf("batch@150 = %d, want 42", n)
	}
	// At 15 Mbps the 4 ms TXOP limits the batch to a handful.
	if n := p.BatchSize(phy.HTRate(0, 1)); n < 3 || n > 6 {
		t.Errorf("batch@15 = %d, want ≈4 (TXOP-limited)", n)
	}
	// Unlimited TXOP at 600 Mbps still capped by the BA window / 64 KB.
	if n := p.BatchSize(phy.HTRate(7, 4)); n != 42 {
		t.Errorf("batch@600 = %d, want 42 (64 KB bound)", n)
	}
}

func TestUDPCapacity80211a(t *testing.T) {
	p := Defaults()
	// Paper §4.2: "In an ideal 802.11 MAC, UDP would achieve 30.2 Mbps"
	// at 54 Mbps.
	got := p.Goodput80211a(phy.RateA54, ModeUDP)
	if got < 29 || got > 31 {
		t.Errorf("UDP@54 = %.1f Mbps, want ≈30.2", got)
	}
}

func TestTCPvsHACK80211a(t *testing.T) {
	p := Defaults()
	tcp := p.Goodput80211a(phy.RateA54, ModeTCP)
	hck := p.Goodput80211a(phy.RateA54, ModeHACK)
	// §2.1/§4.2 imply theory ≈22-24 stock and ≈28-29 HACK at 54 Mbps.
	if tcp < 22 || tcp > 25 {
		t.Errorf("TCP@54 = %.1f, want ≈24", tcp)
	}
	if hck < 27 || hck > 30 {
		t.Errorf("HACK@54 = %.1f, want ≈29", hck)
	}
	if hck <= tcp {
		t.Error("HACK must beat stock")
	}
	// HACK stays below the UDP bound.
	if hck >= p.Goodput80211a(phy.RateA54, ModeUDP) {
		t.Error("HACK exceeded the UDP bound")
	}
}

func TestImprovementShape80211n(t *testing.T) {
	p := Defaults()
	// Paper Figure 12: ≈7% predicted improvement at 150 Mbps.
	imp150 := p.Improvement(phy.HTRate(7, 1), true)
	if imp150 < 0.05 || imp150 > 0.10 {
		t.Errorf("improvement@150 = %.1f%%, want ≈7%%", imp150*100)
	}
	// Paper Figure 1(b): ≈20% at 600 Mbps.
	imp600 := p.Improvement(phy.HTRate(7, 4), true)
	if imp600 < 0.15 || imp600 > 0.25 {
		t.Errorf("improvement@600 = %.1f%%, want ≈20%%", imp600*100)
	}
	// Gain grows with PHY rate (the paper's central observation).
	if imp600 <= imp150 {
		t.Error("improvement must grow with rate")
	}
	// Paper Figure 1(b): ≈8% average for rates < 100 Mbps.
	var sum float64
	var count int
	for _, r := range phy.RatesHT40SGI1() {
		if r.Kbps < 100000 {
			sum += p.Improvement(r, true)
			count++
		}
	}
	avg := sum / float64(count)
	if avg < 0.05 || avg > 0.12 {
		t.Errorf("avg improvement <100 Mbps = %.1f%%, want ≈8%%", avg*100)
	}
}

func TestEfficiencyFallsWithRate(t *testing.T) {
	// Paper Figure 1: achievable TCP throughput is a progressively
	// smaller fraction of the PHY rate.
	p := Defaults()
	prev := 1.0
	for _, r := range phy.RatesA {
		eff := p.Goodput80211a(r, ModeTCP) / r.Mbps()
		if eff >= prev {
			t.Errorf("efficiency at %v = %.2f did not fall (prev %.2f)", r, eff, prev)
		}
		prev = eff
	}
}

func TestMonotoneInRate(t *testing.T) {
	p := Defaults()
	for _, mode := range []Mode{ModeTCP, ModeHACK, ModeUDP} {
		prev := 0.0
		for _, r := range phy.RatesA {
			g := p.Goodput80211a(r, mode)
			if g <= prev {
				t.Errorf("mode %d: goodput not increasing at %v", mode, r)
			}
			prev = g
		}
		prev = 0.0
		for _, r := range phy.RatesHT40SGI1() {
			g := p.Goodput80211n(r, mode)
			if g <= prev {
				t.Errorf("mode %d: HT goodput not increasing at %v", mode, r)
			}
			prev = g
		}
	}
}

func TestHACKBetween(t *testing.T) {
	p := Defaults()
	for _, r := range phy.RatesHT40SGI1() {
		tcp := p.Goodput80211n(r, ModeTCP)
		hck := p.Goodput80211n(r, ModeHACK)
		udp := p.Goodput80211n(r, ModeUDP)
		if !(tcp < hck && hck < udp) {
			t.Errorf("%v: want TCP (%.1f) < HACK (%.1f) < UDP (%.1f)", r, tcp, hck, udp)
		}
	}
}

func TestParamsOverrides(t *testing.T) {
	// No delayed ACK doubles ACK traffic: stock TCP loses more, so
	// HACK's edge grows (the paper's footnote 1).
	d := Defaults()
	nd := Defaults()
	nd.DelayedAckRatio = 1
	if nd.Improvement(phy.RateA54, false) <= d.Improvement(phy.RateA54, false) {
		t.Error("disabling delayed ACK should increase HACK's edge")
	}
	// Unlimited TXOP grows batches at low rates.
	unlim := Defaults()
	unlim.TXOPLimit = -1
	unlim.TXOPLimit = 0 // explicit zero after withDefaults would reset; use direct call
	p := Params{MSS: 1448, DataIPLen: 1500, AckIPLen: 52, CompressedAckLen: 5,
		DelayedAckRatio: 2, TXOPLimit: sim.Second}
	if p.BatchSize(phy.HTRate(0, 1)) <= d.BatchSize(phy.HTRate(0, 1)) {
		t.Error("longer TXOP should allow bigger batches at 15 Mbps")
	}
}

// Improvement returns HACK's fractional goodput gain over stock TCP at
// the given rate (e.g. 0.07 = 7%).
func (p Params) Improvement(rate phy.Rate, ht bool) float64 {
	if ht {
		s := p.Goodput80211n(rate, ModeTCP)
		h := p.Goodput80211n(rate, ModeHACK)
		return (h - s) / s
	}
	s := p.Goodput80211a(rate, ModeTCP)
	h := p.Goodput80211a(rate, ModeHACK)
	return (h - s) / s
}
