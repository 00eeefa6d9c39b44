package phy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tcphack/internal/sim"
)

func TestLegacyRateTable(t *testing.T) {
	// NDBPS must equal Mbps × 4 µs symbol for every legacy rate.
	for _, r := range RatesA {
		if got := r.Kbps * 4 / 1000; got != r.NDBPS {
			t.Errorf("%v: NDBPS %d inconsistent with rate (want %d)", r, r.NDBPS, got)
		}
		// NDBPS must also match 48 subcarriers × bits/sym × coding.
		want := 48 * r.Mod.BitsPerSymbol() * r.Code.Num / r.Code.Den
		if r.NDBPS != want {
			t.Errorf("%v: NDBPS %d, want %d from modulation table", r, r.NDBPS, want)
		}
	}
}

func TestHTRateTable(t *testing.T) {
	want := []int{15000, 30000, 45000, 60000, 90000, 120000, 135000, 150000}
	for i, r := range RatesHT40SGI1() {
		if r.Kbps != want[i] {
			t.Errorf("MCS%d = %d Kbps, want %d", i, r.Kbps, want[i])
		}
		if !r.HT || r.Streams != 1 {
			t.Errorf("MCS%d: HT=%v streams=%d", i, r.HT, r.Streams)
		}
	}
	// Four streams at MCS7 is the paper's 600 Mbps configuration.
	if r := HTRate(7, 4); r.Kbps != 600000 {
		t.Errorf("MCS7x4 = %d Kbps, want 600000", r.Kbps)
	}
	if r := HTRate(7, 2); r.Kbps != 300000 {
		t.Errorf("MCS7x2 = %d Kbps, want 300000", r.Kbps)
	}
}

func TestHTRatePanics(t *testing.T) {
	for _, tc := range []struct{ mcs, ss int }{{-1, 1}, {8, 1}, {0, 0}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HTRate(%d,%d) did not panic", tc.mcs, tc.ss)
				}
			}()
			HTRate(tc.mcs, tc.ss)
		}()
	}
}

func TestFrameDurationKnownValues(t *testing.T) {
	// 802.11a ACK (14 bytes) at 24 Mbps: 16+112+6 = 134 bits →
	// 2 symbols of 96 bits → 20 + 8 = 28 µs. A standard reference value.
	if d := FrameDuration(RateA24, 14); d != 28*sim.Microsecond {
		t.Errorf("ACK@24 = %v, want 28µs", d)
	}
	// 1536-byte MPDU (1500 IP + 8 LLC + 28 MAC) at 54 Mbps:
	// 16+12288+6 = 12310 bits → ceil(12310/216)=57 symbols → 20+228 = 248 µs.
	if d := FrameDuration(RateA54, 1536); d != 248*sim.Microsecond {
		t.Errorf("1536B@54 = %v, want 248µs", d)
	}
	// 6 Mbps minimum-size frame: preamble dominates.
	if d := FrameDuration(RateA6, 0); d != 24*sim.Microsecond {
		t.Errorf("0B@6 = %v, want 24µs (20 preamble + 1 symbol)", d)
	}
	// HT 150 Mbps: 1500 bytes of payload ≈ 80 µs of symbols (paper §1).
	r := HTRate(7, 1)
	d := FrameDuration(r, 1500)
	symbolsOnly := d - 36*sim.Microsecond
	if symbolsOnly < 79*sim.Microsecond || symbolsOnly > 84*sim.Microsecond {
		t.Errorf("1500B@150 symbol time = %v, want ≈80µs", symbolsOnly)
	}
}

func TestFrameDurationMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		la, lb := int(a), int(b)
		if la > lb {
			la, lb = lb, la
		}
		for _, r := range []Rate{RateA6, RateA54, HTRate(0, 1), HTRate(7, 4)} {
			if FrameDuration(r, la) > FrameDuration(r, lb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestFasterRateNeverSlower(t *testing.T) {
	for _, n := range []int{1, 100, 1500, 65535} {
		for i := 0; i < len(RatesA)-1; i++ {
			if FrameDuration(RatesA[i], n) < FrameDuration(RatesA[i+1], n) {
				t.Errorf("len %d: %v slower than %v", n, RatesA[i+1], RatesA[i])
			}
		}
	}
}

func TestPayloadCapacityInvertsDuration(t *testing.T) {
	f := func(lenU uint16, rateIdx uint8) bool {
		rates := append(append([]Rate{}, RatesA...), RatesHT40SGI1()...)
		r := rates[int(rateIdx)%len(rates)]
		n := int(lenU)
		d := FrameDuration(r, n)
		cap := PayloadCapacity(r, d)
		// Capacity at exactly the frame's duration must admit the frame...
		if cap < n {
			return false
		}
		// ...and a frame of the returned capacity must still fit.
		return FrameDuration(r, cap) <= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestPayloadCapacityTXOP(t *testing.T) {
	// Paper: at 150 Mbps a 64 KB A-MPDU (~42×1542B) fits in 4 ms; at
	// 15 Mbps the TXOP limit bites first.
	fast := HTRate(7, 1)
	if c := PayloadCapacity(fast, 4*sim.Millisecond); c < 64*1024 {
		t.Errorf("capacity@150/4ms = %d, want ≥ 64KiB", c)
	}
	slow := HTRate(0, 1)
	c := PayloadCapacity(slow, 4*sim.Millisecond)
	if c >= 64*1024 {
		t.Errorf("capacity@15/4ms = %d, want < 64KiB (TXOP must limit)", c)
	}
	if c < 4*1542 {
		t.Errorf("capacity@15/4ms = %d, want ≥ ~4 MPDUs", c)
	}
	if PayloadCapacity(fast, 1*sim.Microsecond) != 0 {
		t.Error("sub-preamble duration should have zero capacity")
	}
}

func TestControlResponseRate(t *testing.T) {
	cases := []struct {
		data Rate
		want Rate
	}{
		{RateA6, RateA6},
		{RateA9, RateA6},
		{RateA12, RateA12},
		{RateA18, RateA12},
		{RateA24, RateA24},
		{RateA54, RateA24},
		{HTRate(0, 1), RateA6},  // 15 Mbps → BPSK ref (6) → 6
		{HTRate(1, 1), RateA12}, // QPSK 1/2 → 12
		{HTRate(2, 1), RateA12}, // QPSK 3/4 → ref 18 → 12
		{HTRate(3, 1), RateA24}, // 16-QAM → 24
		{HTRate(7, 1), RateA24}, // 150 Mbps → 24 (paper's pairing)
		{HTRate(7, 4), RateA24},
	}
	for _, c := range cases {
		if got := ControlResponseRate(c.data); got.Kbps != c.want.Kbps {
			t.Errorf("ControlResponseRate(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestMeanIdleMatchesPaper(t *testing.T) {
	// Paper §1: EDCA enforces an average idle of 110.5 µs before a
	// frame's transmission: AIFS (43 µs) + CWmin/2 (7.5 slots).
	mean := AIFS + SlotTime*sim.Duration(CWMin)/2
	if mean != sim.Duration(110500)*sim.Nanosecond {
		t.Errorf("mean idle = %v, want 110.5µs", mean)
	}
	if DIFS != 34*sim.Microsecond {
		t.Errorf("DIFS = %v, want 34µs", DIFS)
	}
}

func TestStringers(t *testing.T) {
	if RateA54.String() != "54Mbps" {
		t.Errorf("RateA54 = %q", RateA54.String())
	}
	if got := HTRate(7, 1).String(); got != "MCS7(150Mbps)" {
		t.Errorf("HT = %q", got)
	}
	if QAM64.String() != "64-QAM" || BPSK.String() != "BPSK" {
		t.Error("modulation stringer wrong")
	}
	if R56.String() != "5/6" {
		t.Errorf("code rate = %q", R56.String())
	}
	if Modulation(99).String() == "" {
		t.Error("unknown modulation should still format")
	}
}

func TestRateZero(t *testing.T) {
	var r Rate
	if !r.IsZero() {
		t.Error("zero Rate not IsZero")
	}
	if RateA6.IsZero() {
		t.Error("RateA6 IsZero")
	}
	var c CodeRate
	if !c.IsZero() || R12.IsZero() {
		t.Error("CodeRate IsZero wrong")
	}
}

// IsZero reports whether r is the zero CodeRate (no code selected).
func (r CodeRate) IsZero() bool { return r.Den == 0 }
