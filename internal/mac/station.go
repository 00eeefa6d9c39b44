package mac

import (
	"fmt"
	"math/rand"

	"tcphack/internal/channel"
	"tcphack/internal/packet"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/stats"
	"tcphack/internal/trace"
)

// Config parameterizes one station.
type Config struct {
	Addr Addr
	Pos  channel.Pos

	// DataRate is the PHY rate for data frames when no RateAdapter is
	// installed (the paper fixes rates per experiment), and the
	// fallback when an adapter declines to pick.
	DataRate phy.Rate
	// RateAdapter selects the data rate per destination; nil pins
	// DataRate (FixedRate). Adapters hold per-station state and must
	// not be shared between stations or networks.
	RateAdapter RateAdapter
	// AckRate overrides the control-response rate; zero derives it
	// from the eliciting frame per the 802.11 basic-rate rules.
	AckRate phy.Rate

	// AIFSN selects the arbitration IFS: 2 reproduces 802.11a DCF
	// (DIFS), 3 the 802.11n EDCA best-effort class.
	AIFSN        int
	CWMin, CWMax int
	// RetryLimit bounds retransmissions of one MPDU (and of a Block
	// ACK Request exchange) beyond the initial attempt.
	RetryLimit int

	// Aggregation enables A-MPDU batching with Block ACKs.
	Aggregation bool
	// MaxAMPDULen bounds the A-MPDU in bytes (spec: 65535).
	MaxAMPDULen int
	// MaxAMPDUFrames bounds MPDUs per A-MPDU (Block ACK window: 64).
	MaxAMPDUFrames int
	// TXOPLimit bounds one data PPDU's airtime (the paper applies the
	// 802.11e 4 ms transmit-opportunity limit). Zero = no limit.
	TXOPLimit sim.Duration

	// QueueLimit caps each destination's transmit queue in MSDUs
	// (the paper sizes the AP queue at 126 packets per flow). Zero =
	// unbounded.
	QueueLimit int

	// AckTurnaround adds delay beyond SIFS before this station sends
	// link-layer ACKs — the SoRa software-radio artifact the paper
	// measures at ~37 µs (commercial NICs: 10–13 µs).
	AckTurnaround sim.Duration
	// AckTimeoutSlack widens this station's ACK timeout, mirroring the
	// paper's raised timeout that accommodates SoRa's late LL ACKs.
	AckTimeoutSlack sim.Duration
	// AckPayloadAllowance sizes the ACK timeout for HACK-lengthened
	// responses: the longest compressed-ACK payload expected.
	AckPayloadAllowance int

	// Tracer, when non-nil, receives MAC-layer events (A-MPDU decode
	// results, NAV updates, Block ACK window state, MPDU fates).
	// Whenever the medium has a Tracer, the station stages its
	// tx_start fields there before each transmission, whatever this
	// one is. Tracers observe only; they never perturb RNG or event
	// order.
	Tracer trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.DataRate.IsZero() {
		c.DataRate = phy.RateA54
	}
	if c.AIFSN == 0 {
		c.AIFSN = 2
	}
	if c.CWMin == 0 {
		c.CWMin = phy.CWMin
	}
	if c.CWMax == 0 {
		c.CWMax = phy.CWMax
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 7
	}
	if c.MaxAMPDULen == 0 {
		c.MaxAMPDULen = 65535
	}
	if c.MaxAMPDUFrames == 0 {
		c.MaxAMPDUFrames = baWindowSize
	}
	if c.RateAdapter == nil {
		c.RateAdapter = FixedRate{Rate: c.DataRate}
	}
	return c
}

// destQueue holds per-destination transmit state.
type destQueue struct {
	dst         Addr
	fifo        fifo[*MSDU]
	retryQ      fifo[*MPDU] // MPDUs awaiting retransmission, oldest first
	outstanding []*MPDU     // transmitted, awaiting a (Block) ACK
	nextSeq     uint16
	awaitingBAR bool
	barRetries  int
	syncPending bool
	// lastDataRate is the rate of the most recent data PPDU to this
	// destination; MPDU outcomes resolved later (Block ACKs, BAR
	// give-ups) are attributed to it.
	lastDataRate phy.Rate
}

// peerState is the station's state toward one peer: the transmit
// queue to it, the last unaggregated sequence number received from it,
// and the receive side of its Block ACK agreement.
type peerState struct {
	q      destQueue
	queued bool         // q is in the station's round-robin order
	rxLast int32        // last unaggregated seq received; -1 before any
	ba     *baRecipient // nil until the first aggregate or BAR
}

func (q *destQueue) hasWork() bool {
	return q.awaitingBAR || q.retryQ.len() > 0 || q.fifo.len() > 0
}

// exchange is the station's frame exchange awaiting its response. Only
// one is ever outstanding, so the station allocates one record with
// itself and every exchange reuses it: q is nil while none is
// outstanding. The response deadline lives in the station's persistent
// respTimeout timer.
//
// The record also owns the station's one DataFrame and one BARFrame:
// a frame lives exactly as long as its exchange, since receivers read
// it only inside EndRx and the exchange resolves (response received or
// deadline passed) after the frame's transmission has finished.
type exchange struct {
	q         *destQueue // nil while no exchange is outstanding
	isBAR     bool       // bar is on the air, not data
	txEnd     sim.Time
	allTCPAck bool

	data DataFrame
	bar  BARFrame
}

// Station is one 802.11 station (client or AP — the MAC is symmetric).
type Station struct {
	sched  *sim.Scheduler
	medium *channel.Medium
	cfg    Config
	rng    *rand.Rand

	dcf dcf

	// peers holds the per-peer records, peers[a-peerBase] for address
	// a. Addresses are handed out sequentially, so a client's one peer
	// and an AP's clients each fill a short dense run.
	peers    []*peerState
	peerBase Addr
	// order lists the transmit queues in first-enqueue order, the
	// order pickQueue's round robin visits them in.
	order  []*destQueue
	rrNext int

	waiting     *exchange  // the station's one exchange record, never nil
	respTimeout *sim.Timer // persistent (Block) ACK deadline for waiting
	respPending bool
	respTimer   *sim.Timer // persistent SIFS-turnaround timer
	respDone    func(any)  // clears respPending at response tx end
	// Pending response parameters (the respTimer callback's state).
	respPeer       Addr
	respBlock      bool
	respElicitRate phy.Rate

	// mpduPool recycles the per-transmission MPDU wrappers: an MPDU
	// returns to it when its fate resolves (delivered or dropped at the
	// retry limit). Receivers never retain one — they extract the MSDU
	// at EndRx — so reuse after that point cannot alias. msduPool
	// recycles the MSDUs created by EnqueuePacket; an MSDU can outlive
	// the sender's exchange (the receiver's Block ACK reorder buffer
	// holds it for up to reorderTimeout), so MSDUs are
	// reference-counted and return here only when the last holder
	// releases. Data and BAR frames live in the exchange record.
	mpduPool []*MPDU
	msduPool []*MSDU
	// ackFree heads the freelist of AckFrames, linked through their
	// next field. A response's frame returns here in respDone, when its
	// transmission ends; by then the medium has made its deliveries.
	// One frame per station is not enough: a response that replaces a
	// pending one can go on the air while the first is still there.
	ackFree *AckFrame

	// rxScratch is the reusable decode buffer for rxData (per-frame MPDU
	// filtering); no callee retains the slice.
	rxScratch []*MPDU

	// lapse is the NAV lapse of the latest frame this station sent that
	// extended another station's NAV (nil before the first, or once it
	// fired); lapseFree heads the freelist of fired lapse records.
	lapse     *navLapse
	lapseFree *navLapse

	// Hooks receives HACK driver callbacks; defaults to NopHooks.
	Hooks Hooks
	// Deliver receives MSDUs addressed to this station, in order.
	Deliver func(*MSDU)
	// OnMSDUResolved, if set, reports the final fate of each
	// transmitted MSDU: true once its delivery is confirmed by a
	// (Block) ACK, false when it is dropped at the retry limit. The
	// HACK driver uses this to know when natively-sent TCP ACKs have
	// actually reached the peer.
	OnMSDUResolved func(m *MSDU, delivered bool)

	// Stats and TCPAckTime expose the counters the experiments read.
	Stats      stats.MAC
	TCPAckTime stats.TimeBreakdown
}

// NewStation creates a station, attaches it to the medium, and readies
// it for traffic.
func NewStation(sched *sim.Scheduler, medium *channel.Medium, cfg Config) *Station {
	st := &Station{
		sched:   sched,
		medium:  medium,
		cfg:     cfg.withDefaults(),
		rng:     sched.ForkRand(),
		waiting: &exchange{},
		Hooks:   NopHooks{},
		Deliver: func(*MSDU) {},
	}
	st.respTimeout = sim.NewTimer(st.onRespTimeout)
	st.respTimer = sim.NewTimer(func() {
		st.sendResponse(st.respPeer, st.respBlock, st.respElicitRate)
	})
	st.respDone = func(a any) {
		st.putAck(a.(*AckFrame))
		st.respPending = false
		// The carrier-idle edge for this transmission fires earlier in
		// the same instant (the medium delivers it before this event),
		// while respPending still blocked us — re-evaluate now.
		st.dcf.recomputeIdle()
	}
	st.dcf.init(st)
	medium.Attach(st)
	return st
}

// Addr returns the station's MAC address.
func (st *Station) Addr() Addr { return st.cfg.Addr }

// Config returns the station's effective configuration.
func (st *Station) Config() Config { return st.cfg }

// Position implements channel.Radio.
func (st *Station) Position() channel.Pos { return st.cfg.Pos }

// CarrierBusy implements channel.Radio.
func (st *Station) CarrierBusy() { st.dcf.onPhysBusy() }

// CarrierIdle implements channel.Radio.
func (st *Station) CarrierIdle() { st.dcf.onPhysIdle() }

// Enqueue queues an MSDU for transmission. It reports false (and
// counts a drop) if the destination queue is full.
func (st *Station) Enqueue(m *MSDU) bool {
	q := st.queue(m.Dst)
	if st.cfg.QueueLimit > 0 && q.fifo.len() >= st.cfg.QueueLimit {
		st.Stats.QueueDrops++
		return false
	}
	m.EnqueuedAt = st.sched.Now()
	q.fifo.push(m)
	st.dcf.request()
	return true
}

// EnqueuePacket wraps p in a recycled MSDU from the station's freelist
// and queues it for dst, reporting false (and counting a drop) if the
// destination queue is full. It is the allocation-free equivalent of
// Enqueue for hot paths: the MSDU returns to the freelist automatically
// once every holder — the transmit path and, for aggregated traffic,
// the receiver's reorder buffer — has released it. The caller's
// reference to p passes to the MSDU, which releases it when it is
// recycled, so a dropped packet is released at once.
func (st *Station) EnqueuePacket(dst Addr, p *packet.Packet, isTCPAck bool) bool {
	m := st.getMSDU(dst, p, isTCPAck)
	if !st.Enqueue(m) {
		m.release()
		return false
	}
	return true
}

// RemoveQueued withdraws the first MSDU for dst matching match from
// the transmit queue, reporting whether one was found. HACK's
// opportunistic mode uses this to cancel a native TCP ACK whose
// compressed copy just rode a link-layer ACK; packets already handed
// to the aggregation machinery cannot be withdrawn.
func (st *Station) RemoveQueued(dst Addr, match func(*MSDU) bool) bool {
	q := st.queue(dst)
	for i, m := range q.fifo.items() {
		if match(m) {
			q.fifo.remove(i)
			m.release()
			return true
		}
	}
	return false
}

// Backlogged reports whether any transmission work remains (queued,
// awaiting retry, or awaiting Block ACK resolution).
func (st *Station) Backlogged() bool {
	if st.waiting.q != nil {
		return true
	}
	for _, q := range st.order {
		if q.hasWork() || len(q.outstanding) > 0 {
			return true
		}
	}
	return false
}

// peerOf returns a's record, creating it on first use.
func (st *Station) peerOf(a Addr) *peerState {
	if i := int(a) - int(st.peerBase); uint(i) < uint(len(st.peers)) {
		if p := st.peers[i]; p != nil {
			return p
		}
	}
	return st.newPeer(a)
}

// newPeer creates a's record, widening peers to cover a.
func (st *Station) newPeer(a Addr) *peerState {
	if len(st.peers) == 0 {
		st.peerBase = a
	}
	i := int(a) - int(st.peerBase)
	if i < 0 {
		wider := make([]*peerState, len(st.peers)-i)
		copy(wider[-i:], st.peers)
		st.peers, st.peerBase, i = wider, a, 0
	}
	for len(st.peers) <= i {
		st.peers = append(st.peers, nil)
	}
	p := &peerState{q: destQueue{dst: a}, rxLast: -1}
	st.peers[i] = p
	return p
}

func (st *Station) queue(dst Addr) *destQueue {
	p := st.peerOf(dst)
	if !p.queued {
		p.queued = true
		st.order = append(st.order, &p.q)
	}
	return &p.q
}

func (st *Station) canTransmit() bool {
	return st.waiting.q == nil && !st.respPending
}

func (st *Station) hasTraffic() bool {
	for _, q := range st.order {
		if q.hasWork() {
			return true
		}
	}
	return false
}

// ackRateFor returns the control-response rate for a frame received at
// dataRate.
func (st *Station) ackRateFor(dataRate phy.Rate) phy.Rate {
	if !st.cfg.AckRate.IsZero() {
		return st.cfg.AckRate
	}
	return phy.ControlResponseRate(dataRate)
}

// dataRateFor returns the rate for the next data frame to q's
// destination, consulting the adapter and falling back to the
// configured DataRate.
func (st *Station) dataRateFor(q *destQueue) phy.Rate {
	r := st.cfg.RateAdapter.RateFor(q.dst)
	if r.IsZero() {
		return st.cfg.DataRate
	}
	return r
}

// lastRateFor returns the rate of the most recent data PPDU to q's
// destination, for attributing late MPDU resolutions.
func (st *Station) lastRateFor(q *destQueue) phy.Rate {
	if q.lastDataRate.IsZero() {
		return st.cfg.DataRate
	}
	return q.lastDataRate
}

// getMSDU returns a recycled (or new) MSDU owned by this station's
// freelist, fully reinitialized with one reference held by the caller.
func (st *Station) getMSDU(dst Addr, p *packet.Packet, isTCPAck bool) *MSDU {
	var m *MSDU
	if n := len(st.msduPool); n > 0 {
		m = st.msduPool[n-1]
		st.msduPool = st.msduPool[:n-1]
	} else {
		m = &MSDU{}
	}
	*m = MSDU{Src: st.cfg.Addr, Dst: dst, Packet: p, IsTCPAck: isTCPAck, pool: st, refs: 1}
	return m
}

// putMSDU recycles an MSDU whose last reference was released,
// releasing the packet reference the MSDU owned.
func (st *Station) putMSDU(m *MSDU) {
	m.Packet.Release()
	m.Packet = nil
	st.msduPool = append(st.msduPool, m)
}

// getMPDU returns a recycled (or new) MPDU initialized to {seq, msdu}.
func (st *Station) getMPDU(seq uint16, msdu *MSDU) *MPDU {
	if n := len(st.mpduPool); n > 0 {
		m := st.mpduPool[n-1]
		st.mpduPool = st.mpduPool[:n-1]
		*m = MPDU{Seq: seq, MSDU: msdu}
		return m
	}
	return &MPDU{Seq: seq, MSDU: msdu}
}

// putMPDU recycles a resolved MPDU. The MSDU reference is dropped so
// the freelist never extends an MSDU's lifetime.
func (st *Station) putMPDU(m *MPDU) {
	m.MSDU = nil
	st.mpduPool = append(st.mpduPool, m)
}

// endExchange resolves the outstanding exchange, zeroing the record
// for the next one. The data frame drops its MPDU pointers (the MPDUs
// live on in retry queues or their own pool) and keeps the slice's
// capacity.
func (st *Station) endExchange() {
	ex := st.waiting
	clear(ex.data.MPDUs)
	*ex = exchange{data: DataFrame{MPDUs: ex.data.MPDUs[:0]}}
}

// getAck returns a recycled (or new) zeroed AckFrame, keeping a
// recycled frame's Payload capacity.
func (st *Station) getAck() *AckFrame {
	f := st.ackFree
	if f == nil {
		return &AckFrame{}
	}
	st.ackFree, f.next = f.next, nil
	return f
}

// putAck zeroes f, keeping its Payload capacity, and returns it to the
// freelist. It runs when f's transmission ends.
func (st *Station) putAck(f *AckFrame) {
	*f = AckFrame{Payload: f.Payload[:0], next: st.ackFree}
	st.ackFree = f
}

// lapseFor returns the NAV lapse, due at `at`, of this station's
// transmission txID, posting the lapse event for the first station
// whose NAV the transmission extends.
func (st *Station) lapseFor(txID uint64, at sim.Time) *navLapse {
	if l := st.lapse; l != nil && l.txID == txID {
		return l
	}
	l := st.lapseFree
	if l != nil {
		st.lapseFree = l.nextFree
	} else {
		l = &navLapse{owner: st}
	}
	l.txID = txID
	st.lapse = l
	st.sched.Post(at, fireLapse, l)
	return l
}

// expectedRespDur returns the worst-case airtime of the response we
// await to a frame sent at dataRate, including the HACK payload
// allowance.
func (st *Station) expectedRespDur(dataRate phy.Rate, block bool) sim.Duration {
	n := ackLen
	if block {
		n = blockAckLen
	}
	n += st.cfg.AckPayloadAllowance
	return phy.FrameDuration(st.ackRateFor(dataRate), n)
}

// txOpportunity is called by the DCF when the station has won the
// medium. waited is the contention time for Table 3 accounting.
func (st *Station) txOpportunity(waited sim.Duration) {
	q := st.pickQueue()
	if q == nil {
		return
	}
	if q.awaitingBAR {
		st.sendBAR(q, waited)
		return
	}
	st.sendData(q, waited)
}

func (st *Station) pickQueue() *destQueue {
	n := len(st.order)
	for i := 0; i < n; i++ {
		if q := st.order[(st.rrNext+i)%n]; q.hasWork() {
			st.rrNext = (st.rrNext + i + 1) % n
			return q
		}
	}
	return nil
}

// sendData builds and transmits the next data PPDU for q.
func (st *Station) sendData(q *destQueue, waited sim.Duration) {
	rate := st.dataRateFor(q)
	q.lastDataRate = rate
	frame := st.buildFrame(q, rate)
	wire := frame.WireLen(rate.HT)

	allAck := true
	retried := 0
	for _, m := range frame.MPDUs {
		if !m.MSDU.IsTCPAck {
			allAck = false
		}
		if m.Retries > 0 {
			retried++
		}
	}
	if st.medium.Tracer != nil {
		class := trace.ClassData
		switch {
		case retried > 0:
			class = trace.ClassRetry
		case allAck:
			class = trace.ClassTCPAck
		}
		st.medium.StageTx(trace.Event{
			Src: uint16(st.cfg.Addr), Dst: uint16(q.dst), Class: class.String(),
			MPDUs: len(frame.MPDUs), Retried: retried,
		})
	}
	tx := st.medium.Transmit(st, rate, wire, frame)

	st.Stats.FramesSent++
	st.Stats.MPDUsSent += uint64(len(frame.MPDUs))

	if allAck {
		st.TCPAckTime.ChannelWait += waited
		st.TCPAckTime.TCPAckAir += tx.Duration()
	}

	ex := st.waiting
	ex.q, ex.txEnd, ex.allTCPAck = q, tx.End, allAck
	st.sched.Reset(st.respTimeout, st.respDeadline(tx.End, frame.Aggregated, rate))
}

// respDeadline computes when to give up on the response to a frame
// sent at dataRate whose transmission ends at txEnd.
func (st *Station) respDeadline(txEnd sim.Time, block bool, dataRate phy.Rate) sim.Time {
	return txEnd + phy.SIFS + phy.SlotTime + st.expectedRespDur(dataRate, block) +
		st.cfg.AckTimeoutSlack + sim.Microsecond
}

// buildFrame assembles the next DataFrame for transmission at rate, in
// the exchange record's frame: pending retransmissions first, then
// fresh MSDUs, within the A-MPDU and TXOP limits.
func (st *Station) buildFrame(q *destQueue, rate phy.Rate) *DataFrame {
	f := &st.waiting.data
	f.From, f.To, f.Aggregated = st.cfg.Addr, q.dst, st.cfg.Aggregation
	ht := rate.HT

	if !st.cfg.Aggregation {
		if q.retryQ.len() == 0 {
			q.retryQ.push(st.getMPDU(q.nextSeq, q.fifo.pop()))
			q.nextSeq = seqNext(q.nextSeq)
		}
		f.MPDUs = append(f.MPDUs, q.retryQ.front())
		f.MoreData = q.fifo.len() > 0
		f.Dur = phy.SIFS + st.expectedRespDur(rate, false)
		return f
	}

	budget := st.cfg.MaxAMPDULen
	if st.cfg.TXOPLimit > 0 {
		if c := phy.PayloadCapacity(rate, st.cfg.TXOPLimit); c < budget {
			budget = c
		}
	}
	used := 0
	add := func(m *MPDU) bool {
		n := subframeLen(mpduWireLen(m.MSDU.Len(), ht))
		if used+n > budget && len(f.MPDUs) > 0 {
			return false
		}
		used += n
		f.MPDUs = append(f.MPDUs, m)
		return true
	}
	for q.retryQ.len() > 0 && len(f.MPDUs) < st.cfg.MaxAMPDUFrames {
		if !add(q.retryQ.front()) {
			break
		}
		q.retryQ.pop()
	}
	// New MPDUs must stay inside the 64-sequence transmit window
	// anchored at the oldest pending retransmission; otherwise the
	// recipient would be forced to advance its scoreboard past the
	// hole and the retried MPDU would be silently discarded.
	winAnchor, anchored := uint16(0), false
	if len(f.MPDUs) > 0 {
		winAnchor, anchored = f.MPDUs[0].Seq, true
	}
	for q.retryQ.len() == 0 && q.fifo.len() > 0 && len(f.MPDUs) < st.cfg.MaxAMPDUFrames {
		if anchored && seqDiff(q.nextSeq, winAnchor) >= baWindowSize {
			break
		}
		m := st.getMPDU(q.nextSeq, q.fifo.front())
		if !add(m) {
			st.putMPDU(m)
			break
		}
		q.nextSeq = seqNext(q.nextSeq)
		q.fifo.pop()
	}
	q.outstanding = append(q.outstanding, f.MPDUs...)
	f.MoreData = q.fifo.len() > 0 || q.retryQ.len() > 0
	f.Sync = q.syncPending
	q.syncPending = false
	f.Dur = phy.SIFS + st.expectedRespDur(rate, true)
	return f
}

// sendBAR transmits a Block ACK Request for q's oldest unresolved MPDU.
func (st *Station) sendBAR(q *destQueue, waited sim.Duration) {
	ex := st.waiting
	bar := &ex.bar
	*bar = BARFrame{From: st.cfg.Addr, To: q.dst, StartSeq: st.oldestUnresolved(q)}
	dataRate := st.lastRateFor(q)
	bar.Dur = phy.SIFS + st.expectedRespDur(dataRate, true)
	rate := st.ackRateFor(dataRate)
	if st.medium.Tracer != nil {
		st.medium.StageTx(trace.Event{
			Src: uint16(st.cfg.Addr), Dst: uint16(q.dst), Class: trace.ClassBAR.String(),
		})
	}
	tx := st.medium.Transmit(st, rate, barLen, bar)
	st.Stats.BARsSent++
	ex.q, ex.isBAR, ex.txEnd = q, true, tx.End
	st.sched.Reset(st.respTimeout, st.respDeadline(tx.End, true, dataRate))
	_ = waited
}

func (st *Station) oldestUnresolved(q *destQueue) uint16 {
	var oldest uint16
	found := false
	consider := func(m *MPDU) {
		if !found || seqLT(m.Seq, oldest) {
			oldest = m.Seq
			found = true
		}
	}
	for _, m := range q.outstanding {
		consider(m)
	}
	for _, m := range q.retryQ.items() {
		consider(m)
	}
	if !found {
		return q.nextSeq
	}
	return oldest
}

// EndRx implements channel.Radio: a transmission completed on the air.
func (st *Station) EndRx(tx *channel.Transmission, outcome channel.Outcome) {
	if outcome != channel.RxOK {
		st.dcf.noteRxError()
		return
	}
	switch f := tx.Frame.(type) {
	case *DataFrame:
		st.rxData(f, tx)
	case *AckFrame:
		st.rxAck(f, tx)
	case *BARFrame:
		st.rxBAR(f, tx)
	default:
		panic(fmt.Sprintf("mac: unknown frame type %T", tx.Frame))
	}
}

func (st *Station) rxData(f *DataFrame, tx *channel.Transmission) {
	if f.To != st.cfg.Addr {
		st.dcf.noteRxOK()
		st.dcf.setNAV(st.sched.Now()+f.Dur, tx)
		return
	}
	ht := tx.Rate.HT
	decoded := st.rxScratch[:0]
	for _, m := range f.MPDUs {
		if !st.medium.Corrupted(tx.Source, st, tx.Rate, mpduWireLen(m.MSDU.Len(), ht)) {
			decoded = append(decoded, m)
		}
	}
	st.rxScratch = decoded[:0]
	if st.cfg.Tracer != nil {
		st.cfg.Tracer.Emit(trace.Event{T: st.sched.Now(), Kind: trace.KindRxFrame,
			Src: uint16(f.From), Dst: uint16(f.To), MPDUs: len(f.MPDUs), Decoded: len(decoded)})
	}
	if len(decoded) == 0 {
		// Nothing decodable: the station cannot even tell the frame was
		// addressed to it; no response, sender times out.
		st.dcf.noteRxError()
		return
	}
	st.dcf.noteRxOK()

	p := st.peerOf(f.From)
	progress := true
	if !f.Aggregated {
		progress = p.rxLast < 0 || seqLT(uint16(p.rxLast), decoded[0].Seq)
	}
	st.Hooks.DataIndication(f.From, DataInd{
		MoreData: f.MoreData,
		Sync:     f.Sync,
		Progress: progress,
		MPDUs:    len(decoded),
	})

	if f.Aggregated {
		r := p.recipient(st)
		for _, m := range decoded {
			r.receive(m)
		}
	} else if m := decoded[0]; p.rxLast < 0 || uint16(p.rxLast) != m.Seq {
		p.rxLast = int32(m.Seq)
		st.deliverUp(m.MSDU)
	}
	st.scheduleResponse(f.From, f.Aggregated, tx.Rate)
}

// recipient returns the receive side of p's Block ACK agreement,
// creating it on first use.
func (p *peerState) recipient(st *Station) *baRecipient {
	if p.ba == nil {
		p.ba = newBARecipient(st)
	}
	return p.ba
}

func (st *Station) scheduleResponse(peer Addr, block bool, elicitRate phy.Rate) {
	if st.respPending {
		// Can only occur if an eliciting frame somehow completed inside
		// our SIFS window; prefer the newer response.
		st.sched.Cancel(st.respTimer)
	}
	st.respPending = true
	st.respPeer, st.respBlock, st.respElicitRate = peer, block, elicitRate
	st.sched.Reset(st.respTimer, st.sched.Now()+phy.SIFS+st.cfg.AckTurnaround)
}

func (st *Station) sendResponse(peer Addr, block bool, elicitRate phy.Rate) {
	f := st.getAck()
	f.From, f.To, f.Block = st.cfg.Addr, peer, block
	if block {
		f.StartSeq, f.Bitmap = st.peerOf(peer).recipient(st).bitmap()
	}
	f.Payload = st.Hooks.BuildAckPayload(f.Payload, peer)
	rate := st.ackRateFor(elicitRate)
	if st.cfg.Tracer != nil && block {
		st.cfg.Tracer.Emit(trace.Event{T: st.sched.Now(), Kind: trace.KindBAWindow,
			Sta: uint16(st.cfg.Addr), Peer: uint16(peer), StartSeq: f.StartSeq, Bitmap: f.Bitmap})
	}
	if st.medium.Tracer != nil {
		var extra sim.Duration
		if len(f.Payload) > 0 {
			base := ackLen
			if block {
				base = blockAckLen
			}
			extra = phy.FrameDuration(rate, f.WireLen()) - phy.FrameDuration(rate, base)
		}
		st.medium.StageTx(trace.Event{
			Src: uint16(st.cfg.Addr), Dst: uint16(peer), Class: trace.ClassAck.String(), Extra: extra,
		})
	}
	tx := st.medium.Transmit(st, rate, f.WireLen(), f)
	if block {
		st.Stats.BlockAcksSent++
	} else {
		st.Stats.AcksSent++
	}
	if len(f.Payload) > 0 {
		st.Stats.HackPayloadsSent++
		st.Stats.HackBytesSent += uint64(len(f.Payload))
		base := ackLen
		if block {
			base = blockAckLen
		}
		st.TCPAckTime.ROHCAir += tx.Duration() - phy.FrameDuration(rate, base)
	}
	st.sched.Post(tx.End, st.respDone, f)
}

func (st *Station) rxAck(f *AckFrame, tx *channel.Transmission) {
	if f.To != st.cfg.Addr {
		st.dcf.noteRxOK()
		return
	}
	if st.medium.Corrupted(tx.Source, st, tx.Rate, f.WireLen()) {
		st.dcf.noteRxError()
		return
	}
	st.dcf.noteRxOK()
	if len(f.Payload) > 0 {
		st.Stats.HackPayloadsRecvd++
		st.Hooks.AckPayloadReceived(f.From, f.Payload)
	}
	ex := st.waiting
	if ex.q == nil || ex.q.dst != f.From {
		return // stale or unexpected response (e.g. after our timeout)
	}
	st.sched.Cancel(st.respTimeout)
	q, allTCPAck, txEnd := ex.q, ex.allTCPAck, ex.txEnd
	st.endExchange()
	if allTCPAck {
		st.TCPAckTime.LLAckOverhead += st.sched.Now() - txEnd
	}
	if f.Block {
		st.processBlockAck(q, f)
	} else {
		st.processAck(q)
	}
	st.dcf.onTxSuccess()
	st.postTx()
}

func (st *Station) processAck(q *destQueue) {
	if q.retryQ.len() == 0 {
		return
	}
	m := q.retryQ.pop()
	st.recordDelivered(q, m)
	st.putMPDU(m)
}

func (st *Station) processBlockAck(q *destQueue, f *AckFrame) {
	q.awaitingBAR = false
	q.barRetries = 0
	for _, m := range q.outstanding {
		if f.Acked(m.Seq) {
			st.recordDelivered(q, m)
			st.putMPDU(m)
		} else {
			st.retryOrDrop(q, m)
		}
	}
	q.clearOutstanding()
}

// clearOutstanding empties the outstanding list once every MPDU in it
// has been resolved or moved to the retry queue, keeping its array.
func (q *destQueue) clearOutstanding() {
	clear(q.outstanding)
	q.outstanding = q.outstanding[:0]
}

func (st *Station) recordDelivered(q *destQueue, m *MPDU) {
	st.Stats.MPDUsDelivered++
	if m.Retries == 0 {
		st.Stats.DeliveredFirstTry++
	} else {
		st.Stats.DeliveredRetried++
	}
	st.cfg.RateAdapter.OnTxResult(q.dst, st.lastRateFor(q), true, m.Retries)
	if st.cfg.Tracer != nil {
		st.traceFate(q, m, trace.FateDelivered)
	}
	if st.OnMSDUResolved != nil {
		st.OnMSDUResolved(m.MSDU, true)
	}
	m.MSDU.release()
}

// traceFate emits m's mpdu_fate event; callers check st.cfg.Tracer.
func (st *Station) traceFate(q *destQueue, m *MPDU, fate trace.Fate) {
	st.cfg.Tracer.Emit(trace.Event{T: st.sched.Now(), Kind: trace.KindMPDUFate,
		Sta: uint16(st.cfg.Addr), Peer: uint16(q.dst), Seq: uint32(m.Seq), Retries: m.Retries, Fate: fate.String()})
}

// retryOrDrop resolves one failed MPDU: it requeues m for
// retransmission, or drops it once its retry budget is spent and
// reports dropped=true.
func (st *Station) retryOrDrop(q *destQueue, m *MPDU) (dropped bool) {
	st.cfg.RateAdapter.OnTxResult(q.dst, st.lastRateFor(q), false, m.Retries)
	m.Retries++
	if m.Retries > st.cfg.RetryLimit {
		st.Stats.Expired++
		if st.cfg.Tracer != nil {
			st.traceFate(q, m, trace.FateExpired)
		}
		if st.OnMSDUResolved != nil {
			st.OnMSDUResolved(m.MSDU, false)
		}
		m.MSDU.release()
		st.putMPDU(m)
		return true
	}
	st.Stats.Retries++
	if st.cfg.Tracer != nil {
		st.traceFate(q, m, trace.FateRetry)
	}
	q.retryQ.push(m)
	return false
}

func (st *Station) rxBAR(f *BARFrame, tx *channel.Transmission) {
	if f.To != st.cfg.Addr {
		st.dcf.noteRxOK()
		st.dcf.setNAV(st.sched.Now()+f.Dur, tx)
		return
	}
	if st.medium.Corrupted(tx.Source, st, tx.Rate, barLen) {
		st.dcf.noteRxError()
		return
	}
	st.dcf.noteRxOK()
	r := st.peerOf(f.From).recipient(st)
	if r.started && seqLT(r.winStart, f.StartSeq) {
		r.advanceTo(f.StartSeq)
	}
	st.scheduleResponse(f.From, true, tx.Rate)
}

// onRespTimeout handles an expired (Block) ACK wait.
func (st *Station) onRespTimeout() {
	ex := st.waiting
	if ex.q == nil {
		return
	}
	q, isBAR, aggregated := ex.q, ex.isBAR, ex.data.Aggregated
	if ex.allTCPAck {
		st.TCPAckTime.LLAckOverhead += st.sched.Now() - ex.txEnd
	}
	st.endExchange()
	st.Stats.AckTimeouts++
	switch {
	case isBAR:
		q.barRetries++
		if q.barRetries > st.cfg.RetryLimit {
			// Give up soliciting (paper Fig. 8): recycle the outstanding
			// MPDUs into the retry queue, move on, and mark the next
			// data frame with SYNC so the receiver keeps its retained
			// compressed-ACK state.
			q.awaitingBAR = false
			q.barRetries = 0
			q.syncPending = true
			for _, m := range q.outstanding {
				st.retryOrDrop(q, m)
			}
			q.clearOutstanding()
			st.dcf.onTxSuccess() // fresh contention state for the new batch
		} else {
			st.dcf.onTxFailure()
		}
	case aggregated:
		// No Block ACK: solicit one with a BAR (paper §3.4).
		q.awaitingBAR = true
		st.dcf.onTxFailure()
	default:
		// Single-MPDU exchange: without aggregation the retry queue
		// holds exactly this MPDU, so popping it and letting
		// retryOrDrop requeue it retransmits the same sequence number.
		if st.retryOrDrop(q, q.retryQ.pop()) {
			st.dcf.onTxSuccess() // fresh contention state for the next MSDU
		} else {
			st.dcf.onTxFailure()
		}
	}
	st.postTx()
}

// postTx re-enters contention after an exchange resolves.
func (st *Station) postTx() {
	st.dcf.drawBackoff()
	st.dcf.wantTx = st.hasTraffic()
	st.dcf.armedAt = st.sched.Now()
	st.dcf.arm()
}

func (st *Station) deliverUp(m *MSDU) {
	st.Deliver(m)
}
