package node_test

import (
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/mac"
	"tcphack/internal/node"
	"tcphack/internal/phy"
	"tcphack/internal/scenario"
)

// TestOracleRatePerNetwork: New resolves the "ideal" and "argmax"
// oracles once, and every station of every BSS pins the same
// mac.FixedRate. Without an SNR model that rate is the family's
// fastest; with one, alone or composed with uniform loss, it is
// mac.IdealRate's or mac.ArgmaxRate's choice at that SNR, scoring a
// Block ACK window under aggregation and one MPDU without.
func TestOracleRatePerNetwork(t *testing.T) {
	ht, a := phy.RateFamily(phy.HTRate(7, 1)), phy.RateFamily(phy.RateA54)
	// separating finds an SNR where the argmax over one MPDU and over a
	// Block ACK window differ, so each case checks which batch New
	// scores.
	separating := func(rates []phy.Rate) float64 {
		for s := 0.0; s <= 35; s += 0.5 {
			if mac.ArgmaxRate(rates, s, 1) != mac.ArgmaxRate(rates, s, mac.BAWindowSize) {
				return s
			}
		}
		t.Fatalf("no SNR separates the argmax over batch 1 and a Block ACK window for %v", rates)
		return 0
	}
	snr, soraSNR := separating(ht), separating(a)
	if mac.IdealRate(ht, snr) == ht[len(ht)-1] || mac.ArgmaxRate(ht, snr, mac.BAWindowSize) == ht[len(ht)-1] {
		t.Fatalf("at SNR %.1f an oracle picks the fastest rate, so the cases below cannot tell SNR from none", snr)
	}
	loss, atSNR := scenario.WithUniformLoss(0.05), scenario.WithSNR(snr)
	cases := []struct {
		name, adapter string
		opts          []scenario.Option
		want          phy.Rate
	}{
		{"ideal-uniform-loss", "ideal", []scenario.Option{loss}, ht[len(ht)-1]},
		{"argmax-uniform-loss", "argmax", []scenario.Option{loss}, ht[len(ht)-1]},
		{"ideal-snr", "ideal", []scenario.Option{atSNR}, mac.IdealRate(ht, snr)},
		{"argmax-snr", "argmax", []scenario.Option{atSNR}, mac.ArgmaxRate(ht, snr, mac.BAWindowSize)},
		{"ideal-snr-and-loss", "ideal", []scenario.Option{loss, atSNR}, mac.IdealRate(ht, snr)},
		{"argmax-snr-and-loss", "argmax", []scenario.Option{loss, atSNR}, mac.ArgmaxRate(ht, snr, mac.BAWindowSize)},
		{"argmax-sora-snr", "argmax", []scenario.Option{scenario.WithSoRa(), scenario.WithSNR(soraSNR)}, mac.ArgmaxRate(a, soraSNR, 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := append([]scenario.Option{
				scenario.With80211n(), scenario.WithClients(2), scenario.WithRateAdapter(c.adapter),
				scenario.WithBSSLayout(node.BSSSpec{}, node.BSSSpec{APPos: channel.Pos{X: 30}}),
			}, c.opts...)
			n := node.New(scenario.New(opts...))
			sts := stations(n)
			if len(sts) != 6 {
				t.Fatalf("built %d stations, want two BSSs of an AP and 2 clients", len(sts))
			}
			for _, st := range sts {
				if got, ok := st.Config().RateAdapter.(mac.FixedRate); !ok || got.Rate != c.want {
					t.Errorf("station %d: adapter %#v, want mac.FixedRate{%v}", st.Config().Addr, st.Config().RateAdapter, c.want)
				}
			}
		})
	}
}
