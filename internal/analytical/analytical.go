// Package analytical computes the closed-form 802.11 MAC capacity
// models behind the paper's Figures 1(a), 1(b) and the "theoretical"
// curves of Figure 12: the goodput of TCP, TCP/HACK, and UDP over
// 802.11a (single frames, immediate ACKs) and 802.11n (A-MPDU
// aggregation, Block ACKs) as a function of PHY rate.
//
// The models mirror §2.1 of the paper: every medium acquisition costs
// an arbitration IFS plus the mean backoff (CWmin/2 slots), each data
// unit carries preamble and header overhead, and the TCP receiver
// produces one delayed ACK per two data segments. TCP/HACK removes the
// TCP-ACK acquisitions entirely, lengthening each link-layer ACK by
// the compressed ACK bytes instead. Collisions, retransmissions, and
// TCP dynamics are deliberately absent (the simulator supplies them);
// the paper makes the same simplification, which is why its simulated
// goodputs run below these curves (Figure 12).
package analytical

import (
	"tcphack/internal/mac"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// Params fixes the workload and protocol constants shared by the
// models.
type Params struct {
	// MSS is the TCP payload per data segment (default 1448: 1500-byte
	// IP MTU minus 40 TCP/IP and 12 timestamp-option bytes).
	MSS int
	// DataIPLen is the IP length of one data packet (default 1500).
	DataIPLen int
	// AckIPLen is the IP length of one TCP ACK (default 52).
	AckIPLen int
	// CompressedAckLen is HACK's per-ACK compressed size in bytes
	// (default 5: ~4 paper bytes plus the 8-bit MSN anchor amortized).
	CompressedAckLen float64
	// DelayedAckRatio is data segments per TCP ACK (default 2).
	DelayedAckRatio int
	// TXOPLimit bounds one PPDU's airtime in aggregated mode
	// (default 4 ms, the paper's setting; 0 = unlimited).
	TXOPLimit sim.Duration
	// AckRate overrides the control-response rate (zero: 802.11 rules).
	AckRate phy.Rate
}

// Defaults returns the paper's parameterization.
func Defaults() Params {
	return Params{
		MSS:              1448,
		DataIPLen:        1500,
		AckIPLen:         52,
		CompressedAckLen: 5,
		DelayedAckRatio:  2,
		TXOPLimit:        4 * sim.Millisecond,
	}
}

func (p Params) withDefaults() Params {
	d := Defaults()
	if p.MSS == 0 {
		p.MSS = d.MSS
	}
	if p.DataIPLen == 0 {
		p.DataIPLen = d.DataIPLen
	}
	if p.AckIPLen == 0 {
		p.AckIPLen = d.AckIPLen
	}
	if p.CompressedAckLen == 0 {
		p.CompressedAckLen = d.CompressedAckLen
	}
	if p.DelayedAckRatio == 0 {
		p.DelayedAckRatio = d.DelayedAckRatio
	}
	if p.TXOPLimit == 0 {
		p.TXOPLimit = d.TXOPLimit
	}
	return p
}

func (p Params) ackRate(data phy.Rate) phy.Rate {
	if !p.AckRate.IsZero() {
		return p.AckRate
	}
	return phy.ControlResponseRate(data)
}

// acquisition returns the mean medium-acquisition overhead: AIFS (or
// DIFS) plus the average initial backoff.
func acquisition(rate phy.Rate) sim.Duration {
	ifs := phy.DIFS
	if rate.HT {
		ifs = phy.AIFS
	}
	return ifs + phy.SlotTime*phy.CWMin/2
}

// Frame sizes mirroring internal/mac.
const (
	ackLen             = 14
	blockAckLen        = 32
	legacyDataOverhead = 36
	htDataOverhead     = 38
	ampduDelimiter     = 4
)

func mpduLen(ipLen int, ht bool) int {
	if ht {
		return ipLen + htDataOverhead
	}
	return ipLen + legacyDataOverhead
}

func subframe(n int) int { return ampduDelimiter + (n+3)&^3 }

// BatchSize returns the A-MPDU size in MPDUs for data packets at rate
// under the 64 KB and TXOP limits — 42 at 150 Mbps, shrinking at low
// rates where the 4 ms TXOP bites (paper §4.3).
func (p Params) BatchSize(rate phy.Rate) int {
	p = p.withDefaults()
	budget := 65535
	if p.TXOPLimit > 0 {
		if c := phy.PayloadCapacity(rate, p.TXOPLimit); c < budget {
			budget = c
		}
	}
	n := budget / subframe(mpduLen(p.DataIPLen, true))
	if n > mac.BAWindowSize {
		n = mac.BAWindowSize
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Mode selects the protocol whose capacity is modelled.
type Mode int

const (
	// ModeTCP is stock TCP over the stock MAC.
	ModeTCP Mode = iota
	// ModeHACK is TCP with HACK carrying all TCP ACKs in LL ACKs.
	ModeHACK
	// ModeUDP is unidirectional UDP (the capacity upper bound).
	ModeUDP
)

// Goodput80211a returns the application-level goodput in Mbps for a
// single flow at the given legacy rate.
func (p Params) Goodput80211a(rate phy.Rate, mode Mode) float64 {
	p = p.withDefaults()
	acq := acquisition(rate)
	ctrl := p.ackRate(rate)
	data := phy.FrameDuration(rate, mpduLen(p.DataIPLen, false))
	llack := phy.FrameDuration(ctrl, ackLen)
	dataCycle := acq + data + phy.SIFS + llack

	switch mode {
	case ModeUDP:
		payload := float64(p.DataIPLen-28) * 8 // IP+UDP headers removed
		return payload / dataCycle.Seconds() / 1e6
	case ModeTCP:
		k := p.DelayedAckRatio
		tcpAck := phy.FrameDuration(rate, mpduLen(p.AckIPLen, false))
		ackCycle := acq + tcpAck + phy.SIFS + llack
		total := sim.Duration(k)*dataCycle + ackCycle
		return float64(k*p.MSS) * 8 / total.Seconds() / 1e6
	case ModeHACK:
		// One of every k LL ACKs is lengthened by one compressed ACK.
		k := p.DelayedAckRatio
		hackAck := phy.FrameDuration(ctrl, ackLen+int(p.CompressedAckLen+0.5))
		total := sim.Duration(k)*(acq+data+phy.SIFS) + sim.Duration(k-1)*llack + hackAck
		return float64(k*p.MSS) * 8 / total.Seconds() / 1e6
	}
	panic("analytical: unknown mode")
}

// Goodput80211n returns the application-level goodput in Mbps for a
// single flow at the given HT rate with A-MPDU aggregation and Block
// ACKs.
func (p Params) Goodput80211n(rate phy.Rate, mode Mode) float64 {
	p = p.withDefaults()
	acq := acquisition(rate)
	ctrl := p.ackRate(rate)
	n := p.BatchSize(rate)
	ampdu := phy.FrameDuration(rate, n*subframe(mpduLen(p.DataIPLen, true)))
	ba := phy.FrameDuration(ctrl, blockAckLen)
	dataCycle := acq + ampdu + phy.SIFS + ba

	switch mode {
	case ModeUDP:
		payload := float64(n*(p.DataIPLen-28)) * 8
		return payload / dataCycle.Seconds() / 1e6
	case ModeTCP:
		nAcks := (n + p.DelayedAckRatio - 1) / p.DelayedAckRatio
		ackAMPDU := phy.FrameDuration(rate, nAcks*subframe(mpduLen(p.AckIPLen, true)))
		ackCycle := acq + ackAMPDU + phy.SIFS + ba
		total := dataCycle + ackCycle
		return float64(n*p.MSS) * 8 / total.Seconds() / 1e6
	case ModeHACK:
		nAcks := (n + p.DelayedAckRatio - 1) / p.DelayedAckRatio
		baHack := phy.FrameDuration(ctrl, blockAckLen+int(float64(float64(nAcks)*p.CompressedAckLen)+0.5))
		total := acq + ampdu + phy.SIFS + baHack
		return float64(n*p.MSS) * 8 / total.Seconds() / 1e6
	}
	panic("analytical: unknown mode")
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
