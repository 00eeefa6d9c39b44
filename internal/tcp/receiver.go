package tcp

import (
	"tcphack/internal/packet"
)

// handleData processes the payload/FIN side of an incoming segment.
func (ep *Endpoint) handleData(p *packet.Packet) {
	t := p.TCP
	seg := interval{t.Seq, t.Seq + uint32(p.PayloadLen)}
	if t.Flags&packet.FlagFIN != 0 {
		ep.finPending = true
		ep.finSeq = seg.e // FIN occupies one sequence slot after payload
		seg.e++
	}

	switch {
	case seqGE(ep.rcvNxt, seg.e):
		// Entirely old: pure duplicate. Re-ack immediately so the
		// sender can make progress, reporting the duplicate range as a
		// D-SACK (RFC 2883) so the sender can tell this apart from a
		// genuine loss signal.
		ep.sendAckDup(seg)
		return
	case seqGT(seg.s, ep.rcvNxt):
		// Out of order: buffer and send an immediate duplicate ACK
		// (with SACK) — RFC 5681 §4.2.
		ep.ooo = insertInterval(ep.ooo, seg)
		ep.noteSACK(seg)
		ep.sendAck()
		return
	}

	// In order (possibly overlapping the left edge).
	ep.advanceRcv(seg.e)

	// Pull any now-contiguous buffered spans.
	changed := true
	for changed {
		changed = false
		for _, iv := range ep.ooo {
			if !seqGT(iv.s, ep.rcvNxt) && seqGT(iv.e, ep.rcvNxt) {
				ep.advanceRcv(iv.e)
				changed = true
			}
		}
	}
	ep.pruneOOO()

	if len(ep.ooo) > 0 {
		// A hole remains beyond this segment: keep acking immediately.
		ep.sendAck()
		return
	}
	if ep.finPending && ep.rcvNxt == ep.finSeq+1 {
		// FIN consumed: acknowledge and finish.
		ep.sendAck()
		if ep.state != stateDone {
			ep.state = stateDone
			if ep.OnDone != nil {
				ep.OnDone()
			}
		}
		return
	}
	ep.maybeDelayAck()
}

// advanceRcv moves rcvNxt forward to end, delivering payload bytes
// (the FIN slot, when present at the very end, is not payload).
func (ep *Endpoint) advanceRcv(end uint32) {
	n := end - ep.rcvNxt
	if ep.finPending && end == ep.finSeq+1 {
		n-- // the FIN's sequence slot carries no data
	}
	ep.rcvNxt = end
	if n > 0 {
		ep.Stats.BytesDelivered += uint64(n)
		ep.OnDeliver(int(n))
	}
}

// pruneOOO drops buffered spans at/below rcvNxt.
func (ep *Endpoint) pruneOOO() {
	kept := ep.ooo[:0]
	for _, iv := range ep.ooo {
		if seqGT(iv.e, ep.rcvNxt) {
			kept = append(kept, iv)
		}
	}
	ep.ooo = kept
}

// noteSACK moves the block containing seg to the front of the
// out-of-order list, per RFC 2018: the first SACK block must specify
// the most recently received segment's block.
func (ep *Endpoint) noteSACK(seg interval) {
	if !ep.sackEnabled {
		return
	}
	// Reorder ooo so the block containing seg comes first; ooo is kept
	// merged by insertInterval, so find the containing block.
	for i, iv := range ep.ooo {
		if !seqGT(iv.s, seg.s) && seqGE(iv.e, seg.e) {
			if i != 0 {
				blk := ep.ooo[i]
				copy(ep.ooo[1:i+1], ep.ooo[:i])
				ep.ooo[0] = blk
			}
			break
		}
	}
}

// maybeDelayAck implements delayed ACKs: acknowledge every second
// segment immediately, otherwise start the delayed-ACK timer.
func (ep *Endpoint) maybeDelayAck() {
	if !ep.cfg.DelayedAck {
		ep.sendAck()
		return
	}
	ep.delackCount++
	if ep.delackCount >= 2 {
		ep.sendAck()
		return
	}
	if !ep.delackTimer.Pending() {
		ep.sched.Reset(ep.delackTimer, ep.sched.Now()+delAckTimeout)
	}
}

// sendAck emits a pure ACK reflecting the current receive state —
// exactly the packet HACK compresses into link-layer acknowledgments.
func (ep *Endpoint) sendAck() {
	ep.sendAckDup(interval{})
}

// sendAckDup emits a pure ACK; a non-empty dup range is reported as
// the leading D-SACK block (RFC 2883).
func (ep *Endpoint) sendAckDup(dup interval) {
	ep.delackCount = 0
	ep.sched.Cancel(ep.delackTimer)
	p := ep.newPacket(packet.FlagACK, ep.sndNxt, 0)
	if ep.sackEnabled {
		max := 3
		if !ep.tsEnabled {
			max = 4
		}
		if dup.e != dup.s {
			p.TCP.Opt.SACKBlocks = append(p.TCP.Opt.SACKBlocks, [2]uint32{dup.s, dup.e})
		}
		for _, iv := range ep.ooo {
			if len(p.TCP.Opt.SACKBlocks) >= max {
				break
			}
			p.TCP.Opt.SACKBlocks = append(p.TCP.Opt.SACKBlocks, [2]uint32{iv.s, iv.e})
		}
	}
	ep.Stats.PureAcksSent++
	ep.Output(p)
}
