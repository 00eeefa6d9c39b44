// Package stats collects the measurements the paper's evaluation
// reports: per-station MAC counters (Table 1's retry percentages),
// ACK-compression counters (Table 2), per-cause time accounting for
// TCP ACK delivery (Table 3), and goodput meters with steady-state
// measurement windows (Figures 9–12).
package stats

import (
	"fmt"

	"tcphack/internal/sim"
)

// MAC aggregates one station's MAC-layer counters.
type MAC struct {
	// PPDU-level.
	FramesSent    uint64 // data PPDUs transmitted (incl. retransmissions)
	AcksSent      uint64
	BlockAcksSent uint64
	BARsSent      uint64
	AckTimeouts   uint64

	// MPDU-level. Delivered MPDUs are classified by how many
	// transmission attempts they needed — Table 1's statistic.
	MPDUsSent         uint64 // MPDU transmissions (incl. retransmissions)
	MPDUsDelivered    uint64 // MPDUs confirmed via (Block)ACK
	DeliveredFirstTry uint64
	DeliveredRetried  uint64
	Retries           uint64 // individual MPDU retransmissions
	Expired           uint64 // MPDUs dropped at the retry limit
	QueueDrops        uint64 // tail drops at the transmit queue

	// HACK piggybacking at this station.
	HackPayloadsSent  uint64 // LL ACKs that carried a compressed frame
	HackBytesSent     uint64 // compressed bytes appended to LL ACKs
	HackPayloadsRecvd uint64
}

// NoRetryFraction returns the fraction of delivered MPDUs that needed
// no retries (Table 1, "no retries" row).
func (m *MAC) NoRetryFraction() float64 {
	total := m.DeliveredFirstTry + m.DeliveredRetried
	if total == 0 {
		return 0
	}
	return float64(m.DeliveredFirstTry) / float64(total)
}

// TimeBreakdown accounts where wall-clock time attributable to TCP ACK
// delivery goes — the four columns of the paper's Table 3.
type TimeBreakdown struct {
	// TCPAckAir is airtime spent transmitting native TCP ACK packets.
	TCPAckAir sim.Duration
	// ROHCAir is the extra airtime LL ACKs carry because of appended
	// compressed TCP ACK frames.
	ROHCAir sim.Duration
	// ChannelWait is time spent acquiring the medium (IFS + backoff +
	// deferrals) before transmitting frames that carry only TCP ACKs.
	ChannelWait sim.Duration
	// LLAckOverhead is time spent waiting for link-layer ACKs elicited
	// by native TCP ACK transmissions (SIFS + ACK airtime + any
	// receiver turnaround delay).
	LLAckOverhead sim.Duration
}

// Add accumulates o into t.
func (t *TimeBreakdown) Add(o TimeBreakdown) {
	t.TCPAckAir += o.TCPAckAir
	t.ROHCAir += o.ROHCAir
	t.ChannelWait += o.ChannelWait
	t.LLAckOverhead += o.LLAckOverhead
}

func (t TimeBreakdown) String() string {
	return fmt.Sprintf("tcpack=%.2fms rohc=%.2fms channel=%.2fms llack=%.2fms",
		t.TCPAckAir.Millis(), t.ROHCAir.Millis(), t.ChannelWait.Millis(), t.LLAckOverhead.Millis())
}

// AckAccounting counts TCP ACK packets by how they travelled — the
// paper's Table 2.
type AckAccounting struct {
	NativeAcks      uint64 // TCP ACKs sent as normal packets
	NativeAckBytes  uint64 // their wire bytes (IP+TCP headers)
	CompressedAcks  uint64 // TCP ACKs carried compressed in LL ACKs
	CompressedBytes uint64 // compressed bytes on the air
	UncompressedOf  uint64 // original sizes of the compressed ACKs
}

// CompressionRatio returns original/compressed size of the ACKs that
// travelled compressed (0 if none did).
func (a *AckAccounting) CompressionRatio() float64 {
	if a.CompressedBytes == 0 {
		return 0
	}
	return float64(a.UncompressedOf) / float64(a.CompressedBytes)
}

// Goodput measures application-level bytes delivered over time, with
// an optional steady-state window start so slow-start transients can
// be excluded (the paper's Figure 10 methodology).
type Goodput struct {
	total       uint64
	windowStart sim.Time
	atWindow    uint64
	lastAt      sim.Time
}

// Add records n application bytes delivered at time now.
func (g *Goodput) Add(now sim.Time, n int) {
	g.total += uint64(n)
	g.lastAt = now
}

// Total returns all bytes delivered.
//
// Test accessor: node.
func (g *Goodput) Total() uint64 { return g.total }

// MarkWindow begins the steady-state measurement window at now.
func (g *Goodput) MarkWindow(now sim.Time) {
	g.windowStart = now
	g.atWindow = g.total
}

// WindowMbps returns goodput in Mbps between MarkWindow and now.
func (g *Goodput) WindowMbps(now sim.Time) float64 {
	dt := (now - g.windowStart).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(g.total-g.atWindow) * 8 / dt / 1e6
}

// Mbps returns goodput in Mbps from time zero to now.
func (g *Goodput) Mbps(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(g.total) * 8 / now.Seconds() / 1e6
}
