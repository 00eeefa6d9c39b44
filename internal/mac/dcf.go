package mac

import (
	"tcphack/internal/channel"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// dcf implements the 802.11 contention engine for one station:
// arbitration inter-frame spacing, slotted backoff with freeze/resume,
// exponential contention-window growth, NAV-based virtual carrier
// sense, and EIFS deferral after reception errors.
//
// The engine is edge-driven: the channel reports physical busy/idle
// transitions, the station reports NAV reservations and reception
// errors, and the station asks for transmission opportunities via
// request(). When the medium has been idle for IFS plus the remaining
// backoff slots, fire() calls Station.txOpportunity.
type dcf struct {
	st *Station

	wantTx bool // a transmission is requested
	// away is set while the station does not listen in a single
	// collision domain, and deaf while it takes no carrier edges under
	// the general engine (see overheard).
	away, deaf bool
	slots      int // remaining backoff slots
	cw         int // current contention window

	physBusy   bool
	physBusyAt sim.Time // when the current physical-busy period began
	navUntil   sim.Time
	eifs       bool // next deferral uses EIFS (post-error)

	// lapse is the pending NAV lapse that re-evaluates this station
	// when navUntil passes; lapsePrev and lapseNext link its members.
	lapse                *navLapse
	lapsePrev, lapseNext *dcf

	idleAt  sim.Time   // when the medium (phys+NAV) last went idle
	armedAt sim.Time   // when the pending request started waiting
	timer   *sim.Timer // persistent fire() timer
}

func (d *dcf) init(st *Station) {
	d.st = st
	d.cw = st.cfg.CWMin
	d.timer = sim.NewTimer(d.fire)
}

// ifs returns the arbitration IFS currently in force: AIFS for the
// station's access class, EIFS after a reception error.
func (d *dcf) ifs() sim.Duration {
	aifsn := 2 // 802.11a DCF: DIFS
	if d.st.cfg.DataRate.HT {
		aifsn = phy.AIFSNBestEffort // 802.11n EDCA best effort
	}
	base := phy.SIFS + sim.Duration(aifsn)*phy.SlotTime
	if d.eifs {
		// EIFS = SIFS + ACKTxTime at the lowest basic rate + AIFS.
		return phy.SIFS + phy.FrameDuration(phy.RateA6, ackLen) + base
	}
	return base
}

// busy reports the logical carrier state (physical or NAV).
func (d *dcf) busy() bool {
	return d.physBusy || d.st.sched.Now() < d.navUntil
}

// onPhysBusy handles a physical busy edge from the channel.
func (d *dcf) onPhysBusy() {
	wasBusy := d.busy()
	d.physBusy = true
	d.physBusyAt = d.st.sched.Now()
	if !wasBusy {
		d.freeze()
	}
}

// onPhysIdle handles a physical idle edge from the channel.
func (d *dcf) onPhysIdle() {
	d.physBusy = false
	d.recomputeIdle()
}

// missedCarrier applies carrier history c to the station, which has
// taken no carrier edge since c counted since edges: the carrier state
// and the last busy edge's time, as onPhysBusy and onPhysIdle would
// have left them. It reports whether an idle edge was missed; the last
// one came at c.IdleAt. An idle station's DCF timer is idle and it
// wants no transmission, so the missed callbacks would have frozen,
// armed and drawn nothing.
func (d *dcf) missedCarrier(c channel.Carrier, since uint64) (idled bool) {
	if c.Edges == since {
		return false
	}
	d.physBusy = c.Busy
	if c.Edges-since >= 2 || c.Busy {
		d.physBusyAt = c.BusyAt
	}
	return c.Edges-since >= 2 || !c.Busy
}

// setNAV extends the virtual carrier reservation until t, the end of
// the reservation carried by the overheard transmission tx.
func (d *dcf) setNAV(t sim.Time, tx *channel.Transmission) {
	if t <= d.navUntil {
		return
	}
	if d.deaf {
		d.st.overheard.catchUp(d.st)
	}
	wasBusy := d.busy()
	d.navUntil = t
	if tr := d.st.cfg.Tracer; tr != nil {
		tr.Emit(trace.Event{T: d.st.sched.Now(), Kind: trace.KindNAV, Sta: uint16(d.st.cfg.Addr), Until: t})
	}
	if !wasBusy {
		d.freeze()
	}
	// Re-evaluate when the reservation lapses.
	tx.Source.(*Station).lapseFor(tx.ID, t).join(d)
}

// navLapse is the NAV expiry of one overheard frame: one scheduler
// event shared by every station whose NAV the frame extended, instead
// of one timer per station. The frame's sender owns the record and
// recycles it once it fires. A sender can have several live: when a
// HACK payload is shorter than AckPayloadAllowance, its next frame can
// end before the previous reservation lapses. Members are linked
// through their dcf, so joining allocates nothing; a member whose NAV
// a later frame extends leaves for that frame's lapse, so a lapse
// re-evaluates only the stations whose NAV it ends.
//
// The first member posts the event and so takes the sequence number
// a timer of its own would take; later members run at that position,
// in join order (the medium's attach order), not at sequence numbers
// of their own. That is the same execution unless another event due
// at exactly the lapse instant is scheduled between the first and the
// last join, inside the medium's delivery loop for this frame. None
// is. The addressee's response timer is due at SIFS+AckTurnaround and
// the lapse at SIFS plus the response airtime at the payload
// allowance; legacy-rate response airtimes are 20 µs plus whole 4 µs
// symbols, which no turnaround in use (0 or 37 µs) equals. Stack and
// forward delays are 50 µs and 10 µs. TCP, HACK and Block ACK reorder
// timers run on millisecond scales.
//
// The same argument frees the posting position for idle stations,
// which do not listen (see overheard): when a frame extends an idle
// station's NAV, the medium's record posts the lapse before the
// delivery loop rather than at that station's place in it, and the
// lapse fires at the same instant with the same members. It also
// updates the idle clock of the idle stations whose NAV it ends
// (idleRoot); a station that wakes while the lapse is pending is
// inserted among the members at its attach-order place.
type navLapse struct {
	owner      *Station
	txID       uint64    // the transmission whose reservation lapses
	head, tail *dcf      // members, in join order
	nextFree   *navLapse // the owner's freelist link
	// idleRoot is 1 + the index of the idle stations' root whose NAV
	// this lapse ends (see overheard), 0 for none.
	idleRoot int32
}

// fireLapse is the lapse event's persistent Post callback.
func fireLapse(a any) { a.(*navLapse).fire() }

// join appends d to the members, taking it out of the lapse of the
// reservation this one extends.
func (l *navLapse) join(d *dcf) {
	if d.lapse != nil {
		d.lapse.leave(d)
	}
	d.lapse, d.lapsePrev = l, l.tail
	if l.tail == nil {
		l.head = d
	} else {
		l.tail.lapseNext = d
	}
	l.tail = d
}

// insert links d in at its attach-order place among the members: a
// station that wakes while the lapse of its NAV is pending rejoins the
// members where the frame's delivery loop put it.
func (l *navLapse) insert(d *dcf) {
	i := d.st.RadioIndex()
	prev := l.tail
	for prev != nil && prev.st.RadioIndex() > i {
		prev = prev.lapsePrev
	}
	d.lapse, d.lapsePrev = l, prev
	if prev == nil {
		d.lapseNext, l.head = l.head, d
	} else {
		d.lapseNext, prev.lapseNext = prev.lapseNext, d
	}
	if d.lapseNext == nil {
		l.tail = d
	} else {
		d.lapseNext.lapsePrev = d
	}
}

// leave unlinks member d.
func (l *navLapse) leave(d *dcf) {
	if d.lapsePrev == nil {
		l.head = d.lapseNext
	} else {
		d.lapsePrev.lapseNext = d.lapseNext
	}
	if d.lapseNext == nil {
		l.tail = d.lapsePrev
	} else {
		d.lapseNext.lapsePrev = d.lapsePrev
	}
	d.lapse, d.lapsePrev, d.lapseNext = nil, nil, nil
}

// fire re-evaluates each member's idle state in join order, then that
// of the idle stations whose NAV it ends, and returns the record to
// its owner's freelist.
func (l *navLapse) fire() {
	for d := l.head; d != nil; d = l.head {
		l.leave(d)
		if d.deaf {
			d.st.overheard.catchUp(d.st)
		}
		d.recomputeIdle()
	}
	st := l.owner
	if l.idleRoot != 0 {
		st.overheard.lapsed(l)
	}
	if st.lapse == l {
		st.lapse = nil
	}
	l.nextFree, st.lapseFree = st.lapseFree, l
}

// noteRxError switches the next deferral to EIFS (802.11: a station
// that could not decode a frame must assume it may have been addressed
// to someone awaiting a SIFS response).
func (d *dcf) noteRxError() {
	d.eifs = true
}

// noteRxOK clears EIFS: a correctly received frame resynchronizes the
// station with the medium.
func (d *dcf) noteRxOK() {
	d.eifs = false
}

// recomputeIdle starts the idle clock if the logical medium is idle.
func (d *dcf) recomputeIdle() {
	if d.busy() {
		return
	}
	d.idleAt = d.st.sched.Now()
	d.arm()
}

// freeze cancels a pending fire and banks backoff slots consumed
// during the idle period that just ended. A timer due at this very
// instant is left alone: the station has already committed to
// transmit in this slot, which is precisely how two stations that
// draw the same backoff collide.
func (d *dcf) freeze() {
	if !d.timer.Pending() {
		return
	}
	if d.timer.At() <= d.st.sched.Now() {
		return
	}
	d.st.sched.Cancel(d.timer)
	elapsed := d.st.sched.Now() - (d.idleAt + d.ifs())
	if elapsed > 0 {
		consumed := int(elapsed / phy.SlotTime)
		if consumed > d.slots {
			consumed = d.slots
		}
		d.slots -= consumed
	}
}

// request asks for a transmission opportunity. Idempotent.
func (d *dcf) request() {
	if d.wantTx {
		return
	}
	d.wantTx = true
	d.armedAt = d.st.sched.Now()
	if !d.busy() {
		// The idle clock may predate this request; keep the earlier
		// idleAt so a station that has been idle ≥ IFS may send at once.
		d.arm()
	}
}

// drawBackoff draws a fresh backoff from the current contention window.
func (d *dcf) drawBackoff() {
	d.slots = d.st.rng.Intn(d.cw + 1)
}

// onTxFailure doubles the contention window (up to CWmax).
func (d *dcf) onTxFailure() {
	d.cw = (d.cw+1)*2 - 1
	if d.cw > phy.CWMax {
		d.cw = phy.CWMax
	}
}

// onTxSuccess resets the contention window.
func (d *dcf) onTxSuccess() {
	d.cw = d.st.cfg.CWMin
}

// arm schedules fire() once the medium has stayed idle for IFS plus
// the remaining backoff.
func (d *dcf) arm() {
	if !d.wantTx || d.busy() || !d.st.canTransmit() {
		return
	}
	if d.timer.Pending() {
		return
	}
	at := d.idleAt + d.ifs() + sim.Duration(d.slots)*phy.SlotTime
	now := d.st.sched.Now()
	if at < now {
		at = now
	}
	d.st.sched.Reset(d.timer, at)
}

func (d *dcf) fire() {
	if !d.wantTx {
		d.st.rest()
		return
	}
	if !d.st.canTransmit() {
		return
	}
	// Committed-slot semantics: a transmission that began at this very
	// instant does not stop us — both stations chose this slot, and the
	// medium will register the collision.
	now := d.st.sched.Now()
	committed := d.physBusy && d.physBusyAt == now && now >= d.navUntil
	if d.busy() && !committed {
		return
	}
	d.wantTx = false
	d.slots = 0
	d.st.txOpportunity(now - d.armedAt)
	d.st.rest()
}
