// Package phy models the 802.11a (legacy OFDM) and 802.11n (HT) physical
// layers at the level of detail the MAC needs: rate tables with their
// modulation and coding parameters, frame airtime computation
// (preamble + symbol-quantized payload), control-response rate
// selection, and the per-PHY MAC timing constants (slot, SIFS, CW
// bounds).
//
// Airtime formulas follow IEEE 802.11-2012: a legacy OFDM PPDU carries
// a 16 µs preamble plus 4 µs SIGNAL field and then
// ceil((16 service + 8·len + 6 tail) / N_DBPS) 4 µs symbols; an HT
// mixed-format PPDU carries a 36 µs preamble (one spatial stream; +4 µs
// per extra HT-LTF) and 3.6 µs symbols at 400 ns guard interval.
package phy

import (
	"fmt"
	"strconv"
	"strings"

	"tcphack/internal/sim"
)

// Modulation identifies the subcarrier modulation of a rate; the
// channel error model maps (Modulation, CodeRate, SNR) to a bit error
// rate.
type Modulation int

// The 802.11a/n subcarrier modulations, in increasing density.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// BitsPerSymbol returns coded bits carried per subcarrier per symbol.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	panic("phy: unknown modulation")
}

// CodeRate is a convolutional code rate expressed as a fraction.
type CodeRate struct{ Num, Den int }

// Common 802.11 code rates.
var (
	R12 = CodeRate{1, 2}
	R23 = CodeRate{2, 3}
	R34 = CodeRate{3, 4}
	R56 = CodeRate{5, 6}
)

func (r CodeRate) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// Rate describes one PHY rate: its nominal bit-rate, the data bits per
// OFDM symbol it carries, and its modulation/coding pair.
type Rate struct {
	// Kbps is the nominal data rate in kilobits per second. Kilobits
	// (not megabits) keep the 802.11a 9 Mbps-style rates integral.
	Kbps int
	// NDBPS is data bits per OFDM symbol.
	NDBPS int
	// Mod and Code drive the SNR→BER error model.
	Mod  Modulation
	Code CodeRate
	// HT marks 802.11n HT rates (3.6 µs symbols, HT preamble).
	HT bool
	// Streams is the number of spatial streams (HT only; 1 for legacy).
	Streams int
	// MCS is the HT MCS index (HT only; -1 for legacy).
	MCS int
}

// Mbps returns the nominal rate in megabits per second.
func (r Rate) Mbps() float64 { return float64(r.Kbps) / 1000 }

func (r Rate) String() string {
	if r.HT {
		return fmt.Sprintf("MCS%d(%gMbps)", r.MCS, r.Mbps())
	}
	return fmt.Sprintf("%gMbps", r.Mbps())
}

// IsZero reports whether r is the zero Rate (no rate selected).
func (r Rate) IsZero() bool { return r.Kbps == 0 }

// Legacy 802.11a OFDM rates (20 MHz, 48 data subcarriers, 4 µs symbol).
var (
	RateA6  = Rate{Kbps: 6000, NDBPS: 24, Mod: BPSK, Code: R12, Streams: 1, MCS: -1}
	RateA9  = Rate{Kbps: 9000, NDBPS: 36, Mod: BPSK, Code: R34, Streams: 1, MCS: -1}
	RateA12 = Rate{Kbps: 12000, NDBPS: 48, Mod: QPSK, Code: R12, Streams: 1, MCS: -1}
	RateA18 = Rate{Kbps: 18000, NDBPS: 72, Mod: QPSK, Code: R34, Streams: 1, MCS: -1}
	RateA24 = Rate{Kbps: 24000, NDBPS: 96, Mod: QAM16, Code: R12, Streams: 1, MCS: -1}
	RateA36 = Rate{Kbps: 36000, NDBPS: 144, Mod: QAM16, Code: R34, Streams: 1, MCS: -1}
	RateA48 = Rate{Kbps: 48000, NDBPS: 192, Mod: QAM64, Code: R23, Streams: 1, MCS: -1}
	RateA54 = Rate{Kbps: 54000, NDBPS: 216, Mod: QAM64, Code: R34, Streams: 1, MCS: -1}
)

// RatesA lists all 802.11a rates in increasing order.
var RatesA = []Rate{RateA6, RateA9, RateA12, RateA18, RateA24, RateA36, RateA48, RateA54}

// BasicRatesA is the mandatory 802.11a basic rate set used for control
// responses (ACKs, Block ACKs).
var BasicRatesA = []Rate{RateA6, RateA12, RateA24}

// HTRate constructs the 802.11n HT rate for the given MCS index
// (0–7 per stream) and stream count, on a 40 MHz channel with 400 ns
// guard interval — the configuration the paper evaluates (MCS7 × 1
// stream = 150 Mbps; MCS7 × 4 streams = 600 Mbps).
func HTRate(mcs, streams int) Rate {
	if mcs < 0 || mcs > 7 {
		panic(fmt.Sprintf("phy: HT MCS %d out of range [0,7]", mcs))
	}
	if streams < 1 || streams > 4 {
		panic(fmt.Sprintf("phy: %d spatial streams out of range [1,4]", streams))
	}
	type mc struct {
		mod  Modulation
		code CodeRate
	}
	table := [8]mc{
		{BPSK, R12}, {QPSK, R12}, {QPSK, R34}, {QAM16, R12},
		{QAM16, R34}, {QAM64, R23}, {QAM64, R34}, {QAM64, R56},
	}
	e := table[mcs]
	// 40 MHz HT: 108 data subcarriers per stream.
	coded := 108 * e.mod.BitsPerSymbol() * streams
	ndbps := coded * e.code.Num / e.code.Den
	// 400 ns GI symbol = 3.6 µs ⇒ Kbps = NDBPS / 3.6 µs.
	kbps := ndbps * 1000 / 36 * 10
	return Rate{
		Kbps: kbps, NDBPS: ndbps, Mod: e.mod, Code: e.code,
		HT: true, Streams: streams, MCS: mcs + 8*(streams-1),
	}
}

// RatesHT40SGI1 lists single-stream HT rates MCS0–7 at 40 MHz / 400 ns
// GI: 15, 30, 45, 60, 90, 120, 135, 150 Mbps — the rate set in the
// paper's Figure 11.
func RatesHT40SGI1() []Rate {
	rates := make([]Rate, 8)
	for i := range rates {
		rates[i] = HTRate(i, 1)
	}
	return rates
}

// RateFamily returns the candidate rate set a rate adapter should
// sweep for a station configured at rate r: the single-stream (or
// r.Streams-stream) HT ladder MCS0–7 for HT rates, the eight 802.11a
// rates otherwise. The result is freshly allocated, in increasing-rate
// order.
func RateFamily(r Rate) []Rate {
	if r.HT {
		streams := r.Streams
		if streams < 1 {
			streams = 1
		}
		rates := make([]Rate, 8)
		for i := range rates {
			rates[i] = HTRate(i, streams)
		}
		return rates
	}
	return append([]Rate(nil), RatesA...)
}

// ParseRate resolves a rate by its command-line name: "a6" through
// "a54" for the 802.11a set, "mcs0" through "mcs7" for single-stream
// HT, and "mcs<i>x<streams>" (e.g. "mcs7x4") for multi-stream HT.
func ParseRate(s string) (Rate, error) {
	for _, r := range RatesA {
		if s == fmt.Sprintf("a%d", r.Kbps/1000) {
			return r, nil
		}
	}
	if rest, ok := strings.CutPrefix(s, "mcs"); ok {
		mcsStr, streamsStr, multi := strings.Cut(rest, "x")
		streams := 1
		if multi {
			n, err := strconv.Atoi(streamsStr)
			if err != nil || n < 1 || n > 4 {
				return Rate{}, fmt.Errorf("phy: unknown rate %q (want a6..a54, mcs0..mcs7, or mcs<i>x<streams>)", s)
			}
			streams = n
		}
		if mcs, err := strconv.Atoi(mcsStr); err == nil && mcs >= 0 && mcs <= 7 {
			return HTRate(mcs, streams), nil
		}
	}
	return Rate{}, fmt.Errorf("phy: unknown rate %q (want a6..a54, mcs0..mcs7, or mcs<i>x<streams>)", s)
}

// MAC timing constants shared by 802.11a and 802.11n OFDM PHYs.
const (
	SlotTime sim.Duration = 9 * sim.Microsecond
	SIFS     sim.Duration = 16 * sim.Microsecond
	DIFS     sim.Duration = SIFS + 2*SlotTime // 34 µs (802.11a DCF)
	CWMin                 = 15
	CWMax                 = 1023
	// AIFSNBestEffort is the EDCA best-effort arbitration IFS number;
	// AIFS = SIFS + AIFSN·slot = 43 µs, giving the paper's 110.5 µs
	// mean idle (43 + 7.5 slots).
	AIFSNBestEffort              = 3
	AIFS            sim.Duration = SIFS + AIFSNBestEffort*SlotTime // 43 µs

	legacyPreamble sim.Duration = 20 * sim.Microsecond // 16 µs PLCP + 4 µs SIGNAL
	legacySymbol   sim.Duration = 4 * sim.Microsecond
	htSymbol       sim.Duration = 3600 * sim.Nanosecond // 400 ns GI
	// HT mixed-format preamble with one HT-LTF:
	// L-STF(8) + L-LTF(8) + L-SIG(4) + HT-SIG(8) + HT-STF(4) + HT-LTF(4).
	htPreambleBase sim.Duration = 36 * sim.Microsecond
	htLTFPerStream sim.Duration = 4 * sim.Microsecond

	serviceBits = 16
	tailBits    = 6
)

// FrameDuration returns the airtime of a PPDU carrying length payload
// bytes at the given rate, including preamble and symbol rounding.
func FrameDuration(rate Rate, length int) sim.Duration {
	if rate.NDBPS <= 0 {
		panic("phy: FrameDuration with zero rate")
	}
	bits := serviceBits + 8*length + tailBits
	symbols := sim.Duration((bits + rate.NDBPS - 1) / rate.NDBPS)
	if rate.HT {
		pre := htPreambleBase + htLTFPerStream*sim.Duration(rate.Streams-1)
		return pre + symbols*htSymbol
	}
	return legacyPreamble + symbols*legacySymbol
}

// PayloadCapacity returns the maximum payload bytes whose PPDU at rate
// fits within dur. It inverts FrameDuration and is used to honour TXOP
// limits when sizing A-MPDUs. Returns 0 if even an empty frame does
// not fit.
func PayloadCapacity(rate Rate, dur sim.Duration) int {
	pre := legacyPreamble
	symbol := legacySymbol
	if rate.HT {
		pre = htPreambleBase + htLTFPerStream*sim.Duration(rate.Streams-1)
		symbol = htSymbol
	}
	if dur < pre {
		return 0
	}
	symbols := int((dur - pre) / symbol)
	bits := symbols*rate.NDBPS - serviceBits - tailBits
	if bits < 0 {
		return 0
	}
	return bits / 8
}

// nonHTReference maps an HT MCS (per-stream index 0–7) to the legacy
// rate with the same modulation and coding, per the 802.11n control
// response rules.
var nonHTReference = [8]Rate{RateA6, RateA12, RateA18, RateA24, RateA36, RateA48, RateA54, RateA54}

// ControlResponseRate returns the rate for a control response frame
// (ACK / Block ACK) elicited by a frame received at dataRate: the
// highest rate in the basic rate set no faster than the eliciting
// frame (802.11-2012 §9.7.6.5.2). HT rates are first mapped to their
// non-HT reference rate.
func ControlResponseRate(dataRate Rate) Rate {
	ref := dataRate
	if dataRate.HT {
		ref = nonHTReference[dataRate.MCS%8]
	}
	best := BasicRatesA[0]
	for _, r := range BasicRatesA {
		if r.Kbps <= ref.Kbps && r.Kbps > best.Kbps {
			best = r
		}
	}
	return best
}
