package mac

import (
	"fmt"

	"tcphack/internal/packet"
	"tcphack/internal/sim"
)

// Addr is a MAC address. Small integers keep traces readable.
type Addr uint16

func (a Addr) String() string { return fmt.Sprintf("sta%d", uint16(a)) }

// MSDU is one IP datagram handed to (or delivered by) the MAC.
type MSDU struct {
	Src, Dst Addr
	Packet   *packet.Packet
	// IsTCPAck tags pure TCP ACK packets. The MAC does not interpret
	// packet contents; the network layer sets this so per-cause time
	// accounting (paper Table 3) can attribute medium time to TCP ACKs.
	IsTCPAck bool
	// EnqueuedAt records when the MSDU entered the transmit queue.
	EnqueuedAt sim.Time
	// pool is the owning station's freelist, nil for manually
	// constructed MSDUs (which are never recycled); refs counts the
	// holders that must release before the MSDU returns to the pool.
	// A pooled MSDU owns one reference to Packet and releases it when
	// it is recycled. See Station.EnqueuePacket.
	pool *Station
	refs int32
}

// retain adds a holder reference to a pooled MSDU. The Block ACK
// reorder buffer takes one when it stores a received MSDU, since the
// sender may resolve (and otherwise recycle) it first. No-op for
// manually constructed MSDUs.
func (m *MSDU) retain() {
	if m.pool != nil {
		m.refs++
	}
}

// release drops one holder reference; the last one returns the MSDU to
// its owning station's freelist. No-op for manually constructed MSDUs.
func (m *MSDU) release() {
	if m.pool == nil {
		return
	}
	if m.refs--; m.refs == 0 {
		m.pool.putMSDU(m)
	}
}

// Len returns the IP datagram length in bytes.
func (m *MSDU) Len() int { return m.Packet.Len() }

// MPDU wraps an MSDU with MAC sequencing and retry state.
type MPDU struct {
	Seq     uint16
	MSDU    *MSDU
	Retries int
}

// Wire-format sizes in bytes (IEEE 802.11-2012).
const (
	ackLen      = 14 // control ACK
	blockAckLen = 32 // compressed Block ACK (8-byte bitmap)
	barLen      = 24 // Block ACK Request
	// Data frame overhead added to an MSDU: MAC header + FCS + LLC/SNAP.
	legacyDataOverhead = 24 + 4 + 8 // 36: non-QoS data
	htDataOverhead     = 26 + 4 + 8 // 38: QoS data
	ampduDelimiter     = 4
)

// Block ACK parameters.
const (
	seqModulus   = 4096
	baWindowSize = 64
	// BAWindowSize is the Block ACK reordering window (64 MPDUs),
	// exported for capacity models.
	BAWindowSize = baWindowSize
)

// seqNext returns the sequence number after a.
func seqNext(a uint16) uint16 { return (a + 1) % seqModulus }

// seqAdd returns a + d modulo the sequence space.
func seqAdd(a uint16, d int) uint16 {
	v := (int(a) + d) % seqModulus
	if v < 0 {
		v += seqModulus
	}
	return uint16(v)
}

// seqDiff returns (a - b) mod 4096 in [0, 4096).
func seqDiff(a, b uint16) int {
	return (int(a) - int(b) + seqModulus) % seqModulus
}

// seqLT reports whether a precedes b in the circular sequence space
// (within half the space, the standard 802.11 convention).
func seqLT(a, b uint16) bool {
	d := seqDiff(b, a)
	return d != 0 && d < seqModulus/2
}

// mpduWireLen returns the on-air MPDU size for an MSDU of n bytes.
func mpduWireLen(n int, ht bool) int {
	if ht {
		return n + htDataOverhead
	}
	return n + legacyDataOverhead
}

// subframeLen returns the A-MPDU subframe size for an MPDU: delimiter
// plus the MPDU padded to a 4-byte boundary.
func subframeLen(mpduLen int) int {
	return ampduDelimiter + (mpduLen+3)&^3
}

// DataFrame is a data PPDU: a single MPDU, or an A-MPDU batch when
// Aggregated is set.
type DataFrame struct {
	From, To Addr
	MPDUs    []*MPDU
	// Aggregated marks A-MPDU framing (with Block ACK response).
	Aggregated bool
	// MoreData is the 802.11 MORE DATA header bit — set by the paper's
	// AP when further packets for this client remain queued (§3.2).
	MoreData bool
	// Sync is the paper's SYNC bit (§3.4, Figure 8): the sender gave up
	// soliciting a Block ACK and moved on; the receiver must retain and
	// re-append its compressed TCP ACK state.
	Sync bool
	// Dur is the NAV duration after frame end (covers SIFS + response).
	Dur sim.Duration
}

// WireLen returns the PPDU payload length in bytes.
func (f *DataFrame) WireLen(ht bool) int {
	if !f.Aggregated {
		return mpduWireLen(f.MPDUs[0].MSDU.Len(), ht)
	}
	n := 0
	for _, m := range f.MPDUs {
		n += subframeLen(mpduWireLen(m.MSDU.Len(), ht))
	}
	return n
}

func (f *DataFrame) String() string {
	kind := "data"
	if f.Aggregated {
		kind = fmt.Sprintf("ampdu[%d]", len(f.MPDUs))
	}
	flags := ""
	if f.MoreData {
		flags += "+more"
	}
	if f.Sync {
		flags += "+sync"
	}
	return fmt.Sprintf("%s %v->%v seq=%d%s", kind, f.From, f.To, f.MPDUs[0].Seq, flags)
}

// AckFrame is a link-layer acknowledgment: either a plain ACK or a
// compressed Block ACK. Payload carries HACK's compressed TCP ACK
// frame, opaque to the MAC. The sending station recycles the frame,
// Payload's array included, once its transmission ends: a receiver
// reads it only inside EndRx.
type AckFrame struct {
	From, To Addr
	Block    bool
	StartSeq uint16 // Block ACK only: bitmap origin
	Bitmap   uint64 // Block ACK only: bit i = StartSeq+i received
	Payload  []byte
	next     *AckFrame // the sending station's freelist link
}

// WireLen returns the control frame length including any appended
// HACK payload.
func (f *AckFrame) WireLen() int {
	base := ackLen
	if f.Block {
		base = blockAckLen
	}
	return base + len(f.Payload)
}

// Acked reports whether seq is acknowledged by this Block ACK:
// explicitly via the bitmap or implicitly by preceding the window.
func (f *AckFrame) Acked(seq uint16) bool {
	if seqLT(seq, f.StartSeq) {
		return true
	}
	d := seqDiff(seq, f.StartSeq)
	return d < baWindowSize && f.Bitmap&(1<<uint(d)) != 0
}

func (f *AckFrame) String() string {
	if f.Block {
		return fmt.Sprintf("blockack %v->%v start=%d bitmap=%#x payload=%dB",
			f.From, f.To, f.StartSeq, f.Bitmap, len(f.Payload))
	}
	return fmt.Sprintf("ack %v->%v payload=%dB", f.From, f.To, len(f.Payload))
}

// BARFrame is a Block ACK Request soliciting a Block ACK and advancing
// the recipient's reorder window to StartSeq.
type BARFrame struct {
	From, To Addr
	StartSeq uint16
	Dur      sim.Duration
}

func (f *BARFrame) String() string {
	return fmt.Sprintf("bar %v->%v start=%d", f.From, f.To, f.StartSeq)
}

// Hooks is the driver-facing extension interface that carries HACK.
// All methods may be called with high frequency.
type Hooks interface {
	// BuildAckPayload appends the opaque bytes for the LL ACK or Block
	// ACK about to be transmitted to peer to dst and returns the
	// extended slice (dst itself when there are none). dst is the
	// frame's own payload buffer: empty, with the capacity earlier
	// payloads left it. The MAC owns the result; it reuses the array
	// for a later response once this one's transmission ends, so the
	// driver keeps no reference to it.
	BuildAckPayload(dst []byte, peer Addr) []byte
	// AckPayloadReceived delivers opaque bytes found on a received LL
	// ACK or Block ACK from peer. payload is valid only during the
	// call: the sender reuses the array once the frame's transmission
	// ends.
	AckPayloadReceived(peer Addr, payload []byte)
	// DataIndication reports a successfully received data frame from
	// peer, before its MSDUs are delivered upward.
	DataIndication(peer Addr, ind DataInd)
}

// DataInd summarizes a received data frame for the driver.
type DataInd struct {
	// MoreData and Sync echo the frame header bits.
	MoreData, Sync bool
	// Progress reports evidence that the peer received our previous
	// link-layer ACK: any A-MPDU (aggregated mode, paper Fig. 5a) or an
	// MPDU with a higher sequence number (single-MPDU mode, Fig. 5b).
	// A retransmission of the same single MPDU is not progress.
	Progress bool
	// MPDUs is the number of MPDUs decoded from the frame.
	MPDUs int
}

// NopHooks is the default no-op Hooks implementation.
type NopHooks struct{}

// BuildAckPayload implements Hooks.
func (NopHooks) BuildAckPayload(dst []byte, _ Addr) []byte { return dst }

// AckPayloadReceived implements Hooks.
func (NopHooks) AckPayloadReceived(Addr, []byte) {}

// DataIndication implements Hooks.
func (NopHooks) DataIndication(Addr, DataInd) {}
