package mac

import (
	"math/bits"

	"tcphack/internal/sim"
)

// reorderTimeout bounds how long the Block ACK recipient holds
// out-of-order MSDUs after the last reception from the peer. Holes
// persist only when the originator drops an MPDU at its retry limit,
// so the timer must comfortably exceed one full retry cycle (a 64 KB
// A-MPDU at 150 Mbps lasts ~3.5 ms, and several retries may be
// needed); flushing early would discard retransmissions that are
// still on their way. Commodity receivers use reorder-release
// timeouts of tens to hundreds of milliseconds.
const reorderTimeout = 20 * sim.Millisecond

// baRecipient is the receive side of a Block ACK agreement with one
// peer: the scoreboard that answers Block ACKs and the reorder buffer
// that restores in-sequence delivery.
//
// The reorder buffer is a ring of baWindowSize slots indexed by
// sequence number mod 64; bit s of held is set while slot s holds an
// MSDU. Every buffered sequence number lies in [winStart, winStart+64),
// and the sequence space (4096) is a multiple of 64, so each slot
// stands for exactly one sequence number of the window, across the
// 4095→0 wrap too.
type baRecipient struct {
	st         *Station
	started    bool
	winStart   uint16
	held       uint64              // slot s holds an MSDU
	ring       [baWindowSize]*MSDU // received, undelivered, seq ≥ winStart
	flushTimer *sim.Timer          // persistent inactivity timer
}

func newBARecipient(st *Station) *baRecipient {
	r := &baRecipient{st: st}
	r.flushTimer = sim.NewTimer(r.flush)
	return r
}

// slot returns seq's ring index.
func slot(seq uint16) uint16 { return seq % baWindowSize }

// receive processes one decoded MPDU. It returns false for duplicates.
func (r *baRecipient) receive(m *MPDU) bool {
	if !r.started {
		r.started = true
		r.winStart = m.Seq
	}
	if seqLT(m.Seq, r.winStart) {
		return false // old duplicate; implicitly acknowledged
	}
	// A sequence number beyond the window forces the window forward
	// (802.11-2012 §9.21.7.6.2). That releases everything below the
	// new window, so m.Seq's slot is free afterwards; inside the window
	// a held slot can only be m.Seq itself.
	if d := seqDiff(m.Seq, r.winStart); d >= baWindowSize {
		r.advanceTo(seqAdd(m.Seq, -(baWindowSize - 1)))
	}
	s := slot(m.Seq)
	if r.held&(1<<s) != 0 {
		return false
	}
	r.ring[s] = m.MSDU
	r.held |= 1 << s
	m.MSDU.retain() // the sender may resolve (and recycle) it first
	r.deliverInOrder()
	r.armFlush()
	return true
}

// take empties slot s and returns its MSDU.
func (r *baRecipient) take(s uint16) *MSDU {
	msdu := r.ring[s]
	r.ring[s] = nil
	r.held &^= 1 << s
	return msdu
}

// deliverInOrder releases the contiguous run at winStart.
func (r *baRecipient) deliverInOrder() {
	for {
		s := slot(r.winStart)
		if r.held&(1<<s) == 0 {
			return
		}
		msdu := r.take(s)
		r.winStart = seqNext(r.winStart)
		r.st.deliverUp(msdu)
		msdu.release()
	}
}

// advanceTo moves the window start to seq, releasing everything below
// it in sequence order (holes are abandoned — the originator dropped
// or moved past them).
func (r *baRecipient) advanceTo(seq uint16) {
	if !r.started {
		r.started = true
		r.winStart = seq
		return
	}
	for r.winStart != seq && r.held != 0 {
		if s := slot(r.winStart); r.held&(1<<s) != 0 {
			msdu := r.take(s)
			r.st.deliverUp(msdu)
			msdu.release()
		}
		r.winStart = seqNext(r.winStart)
	}
	r.winStart = seq
	r.deliverInOrder()
	r.armFlush()
}

// bitmap builds the compressed Block ACK response: origin and 64 bits,
// bit i answering winStart+i. That is held rotated so that winStart's
// slot lands on bit 0.
func (r *baRecipient) bitmap() (start uint16, word uint64) {
	return r.winStart, bits.RotateLeft64(r.held, -int(slot(r.winStart)))
}

// armFlush (re)starts the hole-recovery timer. It is called on every
// reception, so the timer measures inactivity: it fires only after the
// peer has gone reorderTimeout without delivering anything new, by
// which point pending retransmissions have either arrived or expired
// at the originator's retry limit.
func (r *baRecipient) armFlush() {
	r.st.sched.Cancel(r.flushTimer)
	if r.held == 0 {
		return
	}
	r.st.sched.Reset(r.flushTimer, r.st.sched.Now()+reorderTimeout)
}

// flush abandons all holes: delivers every buffered MSDU in sequence
// order and advances the window just past the highest one.
func (r *baRecipient) flush() {
	if r.held == 0 {
		return
	}
	_, word := r.bitmap()
	r.advanceTo(seqAdd(r.winStart, bits.Len64(word)))
}
