// Lossy: the paper's Figure 11 experiment in miniature — sweep SNR
// with every station running the ideal-SNR rate adapter (one
// simulation per SNR point), reporting the goodput ideal rate
// adaptation achieves for stock TCP and TCP/HACK. The paper's
// original method — try every fixed rate and take the envelope — is
// the reference TestFig11AdapterMatchesEnvelope checks this against.
// Also demonstrates §3.4's claim: HACK's loss recovery produces no
// decompression failures even on terrible links.
package main

import (
	"fmt"
	"sort"

	"tcphack"
)

func main() {
	opts := tcphack.ExperimentOptions{
		Warmup:  tcphack.Second,
		Measure: 2 * tcphack.Second,
		Seed:    7,
	}
	res := tcphack.Fig11(opts, []float64{0, 5, 10, 15, 20, 25, 30}, nil, "ideal")

	snrs := make([]float64, 0, len(res.EnvelopeTCP))
	for snr := range res.EnvelopeTCP {
		snrs = append(snrs, snr)
	}
	sort.Float64s(snrs)

	fmt.Printf("%-8s %14s %14s %8s\n", "SNR dB", "TCP Mbps", "HACK Mbps", "gain")
	for _, snr := range snrs {
		tcp, hck := res.EnvelopeTCP[snr], res.EnvelopeHACK[snr]
		gain := "   -"
		if tcp > 1 {
			gain = fmt.Sprintf("%+.1f%%", (hck-tcp)/tcp*100)
		}
		fmt.Printf("%-8.0f %12.1f M %12.1f M %8s\n", snr, tcp, hck, gain)
	}
	fmt.Printf("\nmean improvement across usable SNRs: %.1f%% (paper: 12.6%%)\n",
		res.MeanImprovementPct)
}
