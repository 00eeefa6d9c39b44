package tcp

import (
	"tcphack/internal/packet"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// flightSize returns the bytes in flight.
func (ep *Endpoint) flightSize() uint32 { return ep.sndNxt - ep.sndUna }

// window returns the current send window (min of cwnd and the peer's
// advertised window).
func (ep *Endpoint) window() uint32 {
	w := ep.cwnd
	if ep.peerWnd < w {
		w = ep.peerWnd
	}
	return w
}

// trySend emits segments as the window allows. After an RTO has
// pulled sndNxt back to sndUna, the region up to sndMax is
// retransmitted (go-back-N, skipping SACKed ranges); beyond sndMax,
// fresh application data flows.
func (ep *Endpoint) trySend() {
	// FIN-WAIT still needs to service the retransmission region after
	// an RTO; no new data can be queued there (the app is drained).
	if ep.state != stateEstablished && ep.state != stateFinWait {
		return
	}
	for {
		// Skip ranges the peer has already SACKed when retransmitting.
		if seqGT(ep.sndMax, ep.sndNxt) {
			for changed := true; changed; {
				changed = false
				for _, iv := range ep.sacked {
					if !seqGT(iv.s, ep.sndNxt) && seqGT(iv.e, ep.sndNxt) {
						ep.sndNxt = iv.e
						changed = true
					}
				}
			}
			if seqGT(ep.sndNxt, ep.sndMax) {
				ep.sndNxt = ep.sndMax
			}
		}
		inFlight := ep.flightSize()
		win := ep.window()
		if inFlight >= win {
			break
		}
		avail := win - inFlight
		if seqGT(ep.sndMax, ep.sndNxt) {
			// Retransmission region.
			n := uint32(ep.effectiveMSS)
			if left := ep.sndMax - ep.sndNxt; left < n {
				n = left
			}
			if n > avail {
				break
			}
			if ep.finSent && ep.sndNxt+n == ep.sndMax {
				n-- // final slot is the FIN, resent by maybeSendFin/RTO path
				if n == 0 {
					p := ep.newPacket(packet.FlagFIN|packet.FlagACK, ep.sndNxt, 0)
					ep.Output(p)
					ep.Stats.Retransmits++
					ep.sndNxt = ep.sndMax
					continue
				}
			}
			ep.emitSegment(ep.sndNxt, int(n), true)
			ep.sndNxt += n
			continue
		}
		remaining := ep.appTotal - ep.appQueued
		if remaining == 0 {
			break
		}
		n := uint32(ep.effectiveMSS)
		if uint64(n) > remaining {
			n = uint32(remaining)
		}
		if n > avail {
			// Send only full windows; a sub-MSS tail goes out when it is
			// the last of the transfer.
			if uint64(avail) < remaining {
				break
			}
			n = avail
		}
		ep.emitSegment(ep.sndNxt, int(n), false)
		ep.sndNxt += n
		ep.sndMax = ep.sndNxt
		ep.appQueued += uint64(n)
	}
	ep.maybeSendFin()
	if ep.flightSize() > 0 {
		ep.armRTXIfIdle()
	}
}

func (ep *Endpoint) maybeSendFin() {
	if ep.state != stateEstablished || ep.finSent {
		return
	}
	if ep.appTotal == 0 || ep.appTotal >= 1<<62 {
		return // endless source or pure receiver: never closes
	}
	if ep.appQueued != ep.appTotal {
		return
	}
	ep.finSent = true
	ep.state = stateFinWait
	p := ep.newPacket(packet.FlagFIN|packet.FlagACK, ep.sndNxt, 0)
	ep.sndNxt++
	ep.sndMax = ep.sndNxt
	ep.Output(p)
	ep.armRTXIfIdle()
}

// emitSegment transmits [seq, seq+n) with the ACK flag set.
func (ep *Endpoint) emitSegment(seq uint32, n int, rtx bool) {
	p := ep.newPacket(packet.FlagACK, seq, n)
	ep.Stats.SegsSent++
	if rtx {
		ep.Stats.Retransmits++
		if ep.cfg.Tracer != nil {
			ep.cfg.Tracer.Emit(trace.Event{T: ep.sched.Now(), Kind: trace.KindTCPRetransmit, Port: ep.cfg.LocalPort, Seq: seq})
		}
	} else if !ep.rttValid && !ep.tsEnabled {
		// Karn's algorithm: time one un-retransmitted segment.
		ep.rttSeq = seq + uint32(n)
		ep.rttAt = ep.sched.Now()
		ep.rttValid = true
	}
	ep.Output(p)
}

// handleAck processes the acknowledgment fields of an incoming segment.
func (ep *Endpoint) handleAck(p *packet.Packet) {
	t := p.TCP
	ack := t.Ack
	ep.peerWnd = uint32(t.Window) << ep.peerWScale
	if ep.sackEnabled {
		ep.absorbSACK(t.Ack, t.Opt.SACKBlocks)
	}

	switch {
	case seqGT(ack, ep.sndMax):
		return // acks data never sent; ignore
	case seqGT(ack, ep.sndUna):
		ep.newAck(ack, t)
	case ack == ep.sndUna && p.PayloadLen == 0 && ep.flightSize() > 0 && !hasDSACK(t):
		// A leading SACK block at or below the cumulative ACK is a
		// D-SACK (RFC 2883): the peer is reporting our own duplicate,
		// not signalling loss. Counting those as dup-ACKs would spin
		// up spurious recoveries after every go-back-N.
		ep.dupAck()
	}
	ep.trySend()
}

func hasDSACK(t *packet.TCP) bool {
	return len(t.Opt.SACKBlocks) > 0 && !seqGT(t.Opt.SACKBlocks[0][1], t.Ack)
}

func (ep *Endpoint) newAck(ack uint32, t *packet.TCP) {
	acked := ack - ep.sndUna
	ep.sndUna = ack
	if seqGT(ack, ep.sndNxt) {
		// A cumulative ACK can overtake a pulled-back sndNxt when the
		// receiver already held the retransmitted span out of order.
		ep.sndNxt = ack
	}
	ep.Stats.BytesAcked += uint64(acked)
	ep.dupAcks = 0

	// RTT sampling: timestamps when available, Karn otherwise. ACKs
	// inside a loss epoch echo frozen timestamps; skip them.
	if ep.tsEnabled && t.Opt.HasTimestamps && t.Opt.TSEcr != 0 && seqGT(ack, ep.sampleFloor) {
		echo := sim.Duration(ep.nowTS()-t.Opt.TSEcr) * sim.Millisecond
		ep.updateRTT(echo)
	} else if ep.rttValid && seqGE(ack, ep.rttSeq) {
		ep.updateRTT(ep.sched.Now() - ep.rttAt)
		ep.rttValid = false
	}

	if ep.inRec {
		if seqGE(ack, ep.recover) {
			// Full acknowledgment: leave recovery.
			ep.inRec = false
			ep.cwnd = ep.ssthresh
			ep.traceCwnd()
		} else {
			// Partial ACK: keep filling holes, pipe-limited (RFC 6675).
			ep.fillHoles()
			ep.armRTX()
		}
	} else if ep.cwnd < ep.ssthresh {
		// Slow start.
		inc := acked
		if inc > uint32(ep.effectiveMSS) {
			inc = uint32(ep.effectiveMSS)
		}
		ep.cwnd += inc
	} else {
		// Congestion avoidance: one MSS per cwnd of ACKed data.
		ep.caAcc += acked
		if ep.caAcc >= ep.cwnd {
			ep.caAcc -= ep.cwnd
			ep.cwnd += uint32(ep.effectiveMSS)
		}
	}

	ep.pruneSACK()

	// Everything ever sent is acknowledged only when sndUna reaches
	// sndMax; after an RTO pulls sndNxt back, flightSize() alone can
	// be zero with a retransmission backlog still pending.
	if ep.sndUna == ep.sndMax {
		ep.disarmRTX()
		if ep.state == stateFinWait && ep.finSent {
			ep.state = stateDone
			if ep.OnDone != nil {
				ep.OnDone()
			}
		}
	} else {
		ep.armRTX()
	}
}

func (ep *Endpoint) dupAck() {
	ep.Stats.DupAcksReceived++
	ep.dupAcks++
	switch {
	case ep.inRec:
		// Each duplicate ACK means a segment left the network: the
		// pipe shrank, so more holes may be filled (RFC 6675).
		ep.fillHoles()
	case ep.dupAcks == 3 && seqGT(ep.sndUna, ep.recover):
		// The recover guard (RFC 6582 §3.2 step 1) rejects the stale
		// duplicate ACKs that trail a just-finished recovery episode.
		ep.enterRecovery()
	}
}

func (ep *Endpoint) enterRecovery() {
	ep.Stats.FastRecoveries++
	ep.inRec = true
	ep.recover = ep.sndMax
	ep.rtxHigh = ep.sndUna
	ep.sampleFloor = ep.sndMax
	half := ep.flightSize() / 2
	min2 := uint32(2 * ep.effectiveMSS)
	if half < min2 {
		half = min2
	}
	ep.ssthresh = half
	ep.cwnd = ep.ssthresh
	ep.traceCwnd()
	ep.fillHoles()
	ep.armRTX()
}

// traceCwnd emits the congestion-window probe at loss-event edges
// (recovery entry/exit, RTO collapse) — the points a cwnd plot needs.
func (ep *Endpoint) traceCwnd() {
	if ep.cfg.Tracer != nil {
		ep.cfg.Tracer.Emit(trace.Event{T: ep.sched.Now(), Kind: trace.KindTCPCwnd, Port: ep.cfg.LocalPort,
			Cwnd: int(ep.cwnd), Ssthresh: int(ep.ssthresh)})
	}
}

// sackedBytes returns the SACKed octets within [from, to).
func (ep *Endpoint) sackedBytes(from, to uint32) uint32 {
	var n uint32
	for _, iv := range ep.sacked {
		s, e := iv.s, iv.e
		if seqGT(from, s) {
			s = from
		}
		if seqGT(e, to) {
			e = to
		}
		if seqGT(e, s) {
			n += e - s
		}
	}
	return n
}

// pipe estimates the octets currently in the network during loss
// recovery (RFC 6675 §4): retransmitted-and-unacknowledged octets
// below rtxHigh (excluding SACKed spans, which have left the network)
// plus any new data sent beyond the recovery point. Unsacked,
// unretransmitted octets in the hole region are presumed lost.
func (ep *Endpoint) pipe() uint32 {
	var p uint32
	if seqGT(ep.rtxHigh, ep.sndUna) {
		p = ep.rtxHigh - ep.sndUna - ep.sackedBytes(ep.sndUna, ep.rtxHigh)
	}
	if seqGT(ep.sndNxt, ep.recover) {
		p += ep.sndNxt - ep.recover
	}
	return p
}

// nextHole locates the first unSACKed, unretransmitted hole below the
// recovery point; n == 0 means none remain.
func (ep *Endpoint) nextHole() (seq uint32, n int) {
	// The FIN occupies the final sequence slot but carries no payload;
	// a hole retransmission must never cover it as data (the peer
	// would deliver a phantom byte and the FIN flag would be lost).
	// An outstanding FIN is retransmitted by the RTO path.
	limit := ep.recover
	if ep.finSent && limit == ep.sndMax {
		limit--
	}
	seq = ep.sndUna
	if seqGT(ep.rtxHigh, seq) {
		seq = ep.rtxHigh
	}
	// Skip ranges the peer has SACKed. The scoreboard is disjoint but
	// recency-ordered, so iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, iv := range ep.sacked {
			if !seqGT(iv.s, seq) && seqGT(iv.e, seq) {
				seq = iv.e
				changed = true
			}
		}
	}
	if seqGE(seq, limit) {
		return 0, 0
	}
	n = ep.effectiveMSS
	if left := limit - seq; left < uint32(n) {
		n = int(left)
	}
	return seq, n
}

// fillHoles retransmits as many presumed-lost holes as the pipe
// allows — the heart of SACK-based recovery. Without it, one hole per
// round trip recovers a burst loss agonizingly slowly, and under
// contention the retransmission timer fires first (the recovery
// spiral real stacks avoid).
func (ep *Endpoint) fillHoles() {
	for {
		if ep.pipe()+uint32(ep.effectiveMSS) > ep.cwnd {
			return
		}
		seq, n := ep.nextHole()
		if n == 0 {
			return
		}
		ep.emitSegment(seq, n, true)
		ep.rtxHigh = seq + uint32(n)
	}
}

// absorbSACK merges the peer's SACK blocks into the scoreboard.
// D-SACK blocks (at or below the cumulative ACK) carry no scoreboard
// information and are skipped.
func (ep *Endpoint) absorbSACK(ack uint32, blocks [][2]uint32) {
	for _, b := range blocks {
		if !seqGT(b[1], b[0]) || !seqGT(b[1], ack) {
			continue
		}
		ep.sacked = insertInterval(ep.sacked, interval{b[0], b[1]})
	}
}

// pruneSACK discards scoreboard entries below sndUna.
func (ep *Endpoint) pruneSACK() {
	kept := ep.sacked[:0]
	for _, iv := range ep.sacked {
		if seqGT(iv.e, ep.sndUna) {
			kept = append(kept, iv)
		}
	}
	ep.sacked = kept
}

// insertInterval merges iv into a disjoint interval list in place,
// reusing the list's array. Members that overlap or abut iv are
// absorbed into it; the rest keep their order, and iv goes before the
// first of them that starts after it. The list need not be sorted (the
// receiver moves its newest SACK block to the front), so every member
// is classified.
func insertInterval(list []interval, iv interval) []interval {
	out := list[:0]
	for _, cur := range list {
		if seqGT(iv.s, cur.e) || seqGT(cur.s, iv.e) {
			out = append(out, cur) // disjoint: entirely before or after iv
			continue
		}
		// Overlap or adjacency: absorb.
		if seqGT(iv.s, cur.s) {
			iv.s = cur.s
		}
		if seqGT(cur.e, iv.e) {
			iv.e = cur.e
		}
	}
	i := 0
	for i < len(out) && !seqGT(out[i].s, iv.s) {
		i++
	}
	out = append(out, interval{})
	copy(out[i+1:], out[i:])
	out[i] = iv
	return out
}

// RTO management (RFC 6298).

func (ep *Endpoint) updateRTT(sample sim.Duration) {
	if sample <= 0 {
		sample = sim.Millisecond
	}
	if ep.srtt == 0 {
		ep.srtt = sample
		ep.rttvar = sample / 2
	} else {
		d := ep.srtt - sample
		if d < 0 {
			d = -d
		}
		ep.rttvar = (3*ep.rttvar + d) / 4
		ep.srtt = (7*ep.srtt + sample) / 8
	}
	ep.rto = ep.srtt + 4*ep.rttvar
	if ep.rto < minRTO {
		ep.rto = minRTO
	}
	if ep.rto > 60*sim.Second {
		ep.rto = 60 * sim.Second
	}
}

func (ep *Endpoint) armRTX() {
	ep.sched.Reset(ep.rtxTimer, ep.sched.Now()+ep.rto)
}

func (ep *Endpoint) armRTXIfIdle() {
	if !ep.rtxTimer.Pending() {
		ep.armRTX()
	}
}

func (ep *Endpoint) disarmRTX() {
	ep.sched.Cancel(ep.rtxTimer)
}

// onRTO fires when the retransmission timer expires.
func (ep *Endpoint) onRTO() {
	switch ep.state {
	case stateSynSent:
		ep.sendSyn(false)
		ep.backoffRTO()
		ep.armRTX()
		return
	case stateSynRcvd:
		ep.sendSyn(true)
		ep.backoffRTO()
		ep.armRTX()
		return
	case stateEstablished, stateFinWait:
	default:
		return
	}
	if ep.flightSize() == 0 {
		return
	}
	ep.Stats.Timeouts++
	if ep.cfg.Tracer != nil {
		ep.cfg.Tracer.Emit(trace.Event{T: ep.sched.Now(), Kind: trace.KindTCPRTO, Port: ep.cfg.LocalPort, RTO: ep.rto})
	}
	// RFC 5681: collapse to one segment, halve ssthresh, and restart
	// transmission from sndUna (go-back-N; slow start re-grows and
	// SACKed spans are skipped on the way back up to sndMax).
	half := ep.flightSize() / 2
	min2 := uint32(2 * ep.effectiveMSS)
	if half < min2 {
		half = min2
	}
	ep.ssthresh = half
	ep.cwnd = uint32(ep.effectiveMSS)
	ep.caAcc = 0
	ep.inRec = false
	ep.dupAcks = 0
	ep.sampleFloor = ep.sndMax
	ep.sndNxt = ep.sndUna
	ep.traceCwnd()

	if ep.finSent && ep.sndMax-ep.sndUna == 1 {
		// Only the FIN is outstanding.
		p := ep.newPacket(packet.FlagFIN|packet.FlagACK, ep.sndUna, 0)
		ep.Output(p)
		ep.Stats.Retransmits++
		ep.sndNxt = ep.sndMax
	} else {
		ep.trySend()
	}
	ep.backoffRTO()
	ep.armRTX()
}

func (ep *Endpoint) backoffRTO() {
	ep.rto *= 2
	if ep.rto > 60*sim.Second {
		ep.rto = 60 * sim.Second
	}
}
