package trace

import "fmt"

// FrameClass labels what a transmission carries, for airtime
// attribution. The sender computes it at transmit time (the receiver
// cannot always: a collided frame is never decoded).
type FrameClass uint8

// Frame classes, in airtime-ledger bucket order.
const (
	// ClassData is a data frame carrying payload on first transmission.
	ClassData FrameClass = iota
	// ClassRetry is a data frame containing at least one retried MPDU.
	ClassRetry
	// ClassTCPAck is a data frame whose MPDUs are all pure TCP ACKs —
	// the reverse-channel traffic HACK exists to remove.
	ClassTCPAck
	// ClassAck is a link-layer ACK or Block ACK.
	ClassAck
	// ClassBAR is a Block ACK Request.
	ClassBAR
)

// classTokens holds each FrameClass's JSONL token, indexed by class.
var classTokens = [...]string{"data", "retry", "tcp_ack", "ack", "bar"}

// String returns the class's JSONL token.
func (c FrameClass) String() string {
	if int(c) < len(classTokens) {
		return classTokens[c]
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// classOf inverts String: it returns the class whose token is tok,
// or a class past ClassBAR, which no airtime bucket takes, when tok
// is unknown.
func classOf(tok string) FrameClass {
	c := ClassData
	for int(c) < len(classTokens) && classTokens[c] != tok {
		c++
	}
	return c
}

// Fate is the terminal or intermediate outcome of one MPDU
// transmission attempt.
type Fate uint8

// MPDU fates.
const (
	// FateDelivered: the MPDU was acknowledged.
	FateDelivered Fate = iota
	// FateRetry: the MPDU was not acknowledged and re-queued.
	FateRetry
	// FateExpired: the MPDU exhausted its retry budget and was dropped.
	FateExpired
)

// String returns the fate's JSONL token.
func (f Fate) String() string {
	switch f {
	case FateDelivered:
		return "delivered"
	case FateRetry:
		return "retry"
	case FateExpired:
		return "expired"
	}
	return fmt.Sprintf("fate%d", uint8(f))
}

// DriverState mirrors the HACK driver's per-peer recovery states for
// trace output (the driver asserts the numbering matches its own).
type DriverState uint8

// HACK driver states (paper §3.4 recovery machine).
const (
	// StateNative: ACKs travel uncompressed.
	StateNative DriverState = iota
	// StateCompressing: ACKs ride compressed inside link-layer ACKs.
	StateCompressing
	// StateResyncing: held state was withdrawn; awaiting a native
	// re-anchor before compression resumes.
	StateResyncing
)

// String returns the state's JSONL token.
func (s DriverState) String() string {
	switch s {
	case StateNative:
		return "native"
	case StateCompressing:
		return "compressing"
	case StateResyncing:
		return "resyncing"
	}
	return fmt.Sprintf("state%d", uint8(s))
}

// Cause explains why a HACK driver state transition fired.
type Cause uint8

// HACK state-transition causes.
const (
	// CauseHold: an ACK was held for compression (entering Compressing).
	CauseHold Cause = iota
	// CauseNativeInterleave: a non-compressible packet forced held ACKs
	// back onto the native path.
	CauseNativeInterleave
	// CauseGuard: the frame-safety guard found regeneration unsafe.
	CauseGuard
	// CauseChainClose: the MORE-DATA chain closed (paper §3.2).
	CauseChainClose
	// CauseTimerFlush: the hold timer expired before a carrier frame.
	CauseTimerFlush
	// CauseSyncGap: a SYNC-marked frame revealed a lost link-layer ACK.
	CauseSyncGap
)

// String returns the cause's JSONL token.
func (c Cause) String() string {
	switch c {
	case CauseHold:
		return "hold"
	case CauseNativeInterleave:
		return "native_interleave"
	case CauseGuard:
		return "guard"
	case CauseChainClose:
		return "chain_close"
	case CauseTimerFlush:
		return "timer_flush"
	case CauseSyncGap:
		return "sync_gap"
	}
	return fmt.Sprintf("cause%d", uint8(c))
}

// Tracer receives the events of every simulator layer through its one
// method. Each probe site builds its Event inside the nil check that
// guards it, so a nil Tracer costs one pointer comparison. The Event
// travels by value: a pointer passed through the interface would
// escape, one heap allocation per probe. Implementations must not
// mutate simulator state, schedule events, or consume RNG draws:
// tracing is determinism-neutral by contract.
type Tracer interface {
	// Emit receives one event; only the fields its Kind uses are set.
	Emit(e Event)
}

// Nop is the zero-cost Tracer: Emit discards the event. Its calls
// through the Tracer interface are allocation-free.
//
// Test accessor: tcphack (the root package), mac, node.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Multi fans events out to several tracers in argument order. Nil
// entries are dropped; Multi returns nil when none remain and the
// single survivor unwrapped, so call sites can compose optional
// tracers without paying for absent ones.
func Multi(trs ...Tracer) Tracer {
	live := make([]Tracer, 0, len(trs))
	for _, tr := range trs {
		if tr != nil {
			live = append(live, tr)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}
