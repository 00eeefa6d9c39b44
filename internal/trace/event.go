package trace

import "tcphack/internal/sim"

// Kind names an event's probe in the JSONL schema.
type Kind string

// Event kinds, one per probe; the package doc lists the layer that
// emits each.
const (
	// KindTxStart: a transmission entered the medium.
	KindTxStart Kind = "tx_start"
	// KindTxEnd: a transmission left the medium.
	KindTxEnd Kind = "tx_end"
	// KindCollision: two transmissions overlapped.
	KindCollision Kind = "collision"
	// KindRxFrame: a data frame was received and decoded.
	KindRxFrame Kind = "rx_frame"
	// KindNAV: a virtual carrier-sense update.
	KindNAV Kind = "nav"
	// KindBAWindow: Block ACK window state.
	KindBAWindow Kind = "ba_window"
	// KindMPDUFate: the outcome of one MPDU attempt.
	KindMPDUFate Kind = "mpdu_fate"
	// KindHackState: a HACK driver state transition.
	KindHackState Kind = "hack_state"
	// KindROHCPacket: one compressed (or IR) TCP ACK was encoded.
	KindROHCPacket Kind = "rohc_packet"
	// KindROHCResult: one HACK frame was decompressed.
	KindROHCResult Kind = "rohc_result"
	// KindTCPRetransmit: a TCP segment retransmission.
	KindTCPRetransmit Kind = "tcp_rtx"
	// KindTCPRTO: a TCP retransmission timeout fired.
	KindTCPRTO Kind = "tcp_rto"
	// KindTCPCwnd: a TCP congestion-window change.
	KindTCPCwnd Kind = "tcp_cwnd"
)

// Event is the flat JSONL record every probe emits. Unused fields for
// a given kind are omitted from the encoding; times and durations are
// simulated nanoseconds. Tracers receive it by value, so growing it
// costs every traced probe a wider copy.
type Event struct {
	// T is the simulated time of the event.
	T sim.Time `json:"t"`
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind `json:"kind"`
	// ID correlates tx_start / tx_end / collision records.
	ID uint64 `json:"id,omitempty"`
	// ID2 is the other transmission in a collision.
	ID2 uint64 `json:"id2,omitempty"`
	// Src and Dst are MAC addresses (tx_start, rx_frame).
	Src uint16 `json:"src,omitempty"`
	Dst uint16 `json:"dst,omitempty"`
	// Sta is the observing station (nav, ba_window, mpdu_fate, rohc_*,
	// hack_state's local end).
	Sta uint16 `json:"sta,omitempty"`
	// Peer is the remote station (ba_window, mpdu_fate, hack_state).
	Peer uint16 `json:"peer,omitempty"`
	// Class is the transmitted frame's class token (tx_start).
	Class string `json:"class,omitempty"`
	// RateKbps is the PHY rate of a transmission.
	RateKbps int `json:"rate_kbps,omitempty"`
	// Bytes is the on-air payload size (tx_start) or encoded
	// compressed-ACK size (rohc_packet).
	Bytes int `json:"bytes,omitempty"`
	// MPDUs is the A-MPDU batch size (tx_start, rx_frame).
	MPDUs int `json:"mpdus,omitempty"`
	// Retried counts the batch's MPDUs carrying a retry (tx_start).
	Retried int `json:"retried,omitempty"`
	// End is the scheduled end of a transmission (tx_start).
	End sim.Time `json:"end,omitempty"`
	// Extra is the HACK-payload share of an ACK frame's duration.
	Extra sim.Duration `json:"extra,omitempty"`
	// Collided marks a transmission destroyed by overlap (tx_end).
	Collided bool `json:"collided,omitempty"`
	// Decoded counts the MPDUs that survived the channel (rx_frame).
	Decoded int `json:"decoded,omitempty"`
	// Until is the NAV expiry (nav).
	Until sim.Time `json:"until,omitempty"`
	// StartSeq is the Block ACK bitmap origin (ba_window).
	StartSeq uint16 `json:"start_seq,omitempty"`
	// Bitmap is the Block ACK bitmap: bit i covers StartSeq+i
	// (ba_window).
	Bitmap uint64 `json:"bitmap,omitempty"`
	// Seq is an MPDU sequence number (mpdu_fate) or TCP sequence
	// number (tcp_rtx).
	Seq uint32 `json:"seq,omitempty"`
	// Retries is the MPDU's retry count so far (mpdu_fate).
	Retries int `json:"retries,omitempty"`
	// Fate is the MPDU outcome token (mpdu_fate).
	Fate string `json:"fate,omitempty"`
	// From and To are driver state tokens (hack_state).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Cause is the transition cause token (hack_state).
	Cause string `json:"cause,omitempty"`
	// IR marks a self-contained IR refresh (rohc_packet).
	IR bool `json:"ir,omitempty"`
	// Packets, Dups, Failures are decompression outcomes (rohc_result).
	Packets  int `json:"packets,omitempty"`
	Dups     int `json:"dups,omitempty"`
	Failures int `json:"failures,omitempty"`
	// Port identifies a TCP flow by its sender port (tcp_*).
	Port uint16 `json:"port,omitempty"`
	// RTO is the expired retransmission timeout (tcp_rto).
	RTO sim.Duration `json:"rto,omitempty"`
	// Cwnd and Ssthresh are congestion state in bytes (tcp_cwnd).
	Cwnd     int `json:"cwnd,omitempty"`
	Ssthresh int `json:"ssthresh,omitempty"`
}
