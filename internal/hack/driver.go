package hack

import (
	"fmt"

	"tcphack/internal/mac"
	"tcphack/internal/packet"
	"tcphack/internal/rohc"
	"tcphack/internal/sim"
	"tcphack/internal/stats"
	"tcphack/internal/trace"
)

// Mode selects the ACK-holding policy.
type Mode int

const (
	// ModeOff disables HACK: ACKs travel natively (the stock baseline;
	// the driver still counts them for Table 2).
	ModeOff Mode = iota
	// ModeMoreData is the paper's design.
	ModeMoreData
	// ModeOpportunistic never delays ACKs; it piggybacks only when
	// data happens to arrive first.
	ModeOpportunistic
	// ModeTimer holds ACKs for a fixed timeout (the paper's rejected
	// strawman, kept for ablation).
	ModeTimer
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeMoreData:
		return "more-data"
	case ModeOpportunistic:
		return "opportunistic"
	case ModeTimer:
		return "timer"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode is String's inverse: it resolves a mode by its
// command-line name.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeOff, ModeMoreData, ModeOpportunistic, ModeTimer} {
		if s == m.String() {
			return m, nil
		}
	}
	return ModeOff, fmt.Errorf("unknown mode %q (want off, more-data, opportunistic, or timer)", s)
}

// RecoveryState is the per-peer state of the compressed-ACK recovery
// machine (see the package documentation for the full transition
// diagram and the invariant each transition preserves).
type RecoveryState int

const (
	// StateNative: no live compressed chain toward the peer. ACKs
	// travel natively; the first successful hold starts a chain.
	StateNative RecoveryState = iota
	// StateCompressing: a healthy chain is open — held ACKs ride
	// link-layer ACKs and retained state re-rides until confirmed
	// (§3.4).
	StateCompressing
	// StateResyncing: the chain was abandoned (a BA gap the §3.4
	// machinery cannot bridge, a guard violation, or a native
	// interleave) and has not reopened yet. Held state was dropped and
	// replayed natively; the next held ACK reopens the chain with an
	// IR refresh, which re-establishes the decompressor context
	// absolutely — so reopening never waits on the replay's fate.
	StateResyncing
)

// trace.DriverState mirrors this numbering; these constant indices
// fail to compile if the two enumerations ever drift.
var (
	_ = [1]struct{}{}[StateNative-RecoveryState(trace.StateNative)]
	_ = [1]struct{}{}[StateCompressing-RecoveryState(trace.StateCompressing)]
	_ = [1]struct{}{}[StateResyncing-RecoveryState(trace.StateResyncing)]
)

func (s RecoveryState) String() string {
	switch s {
	case StateNative:
		return "native"
	case StateCompressing:
		return "compressing"
	case StateResyncing:
		return "resyncing"
	}
	return fmt.Sprintf("RecoveryState(%d)", int(s))
}

// DefaultMaxPayload bounds the compressed payload appended to one
// link-layer ACK. It must not exceed the MAC's AckPayloadAllowance:
// a longer response than the sender's ACK timeout budget arrives after
// the deadline, the exchange "fails", and the retained state grows —
// the positive feedback loop behind the historical MORE-DATA collapse
// under uniform loss.
const DefaultMaxPayload = 1024

// msnRetainLimit bounds the per-flow MSN span of one assembled frame
// (oldest retained to newest ridden). The decompressor's duplicate
// filter treats an MSN up to 127 behind the newest delivered one as a
// duplicate and anything beyond as new, so a retained ACK re-ridden
// with a span ≥ 128 would be mistaken for fresh state and poison the
// context. 120 leaves margin below the wrap point.
const msnRetainLimit = 120

// maxHeld is the NIC descriptor-table bound on not-yet-ridden ACKs
// per peer — a final safety valve; the payload and MSN guards trip
// long before it in practice.
const maxHeld = 128

// holdTimeout bounds ACK retention in ModeTimer.
const holdTimeout = 5 * sim.Millisecond

// driverLatency models the host-side path from TCP ACK generation to
// the compressed descriptor being DMA-visible to the NIC (Figure 3).
// Until it elapses, the NIC's "TCP/HACK ready" check fails and the ACK
// cannot ride a link-layer ACK.
const driverLatency = 20 * sim.Microsecond

// Config parameterizes a Driver.
type Config struct {
	Mode Mode
	// MaxPayload bounds the compressed payload per link-layer ACK
	// (default DefaultMaxPayload). It must stay within the MAC's
	// AckPayloadAllowance or response frames outrun the ACK timeout.
	MaxPayload int

	// Addr is the owning station's MAC address, labeling trace probes.
	// Only consulted when Tracer is non-nil.
	Addr mac.Addr
	// Tracer, when non-nil, receives recovery-machine transitions and
	// ROHC codec probes. Tracers observe only; they never perturb RNG
	// draws, event order, or protocol state.
	Tracer trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxPayload == 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	return c
}

// nativeFate is what the MAC has reported about the native copy of an
// opportunistic-mode held ACK.
type nativeFate uint8

const (
	nativeInFlight nativeFate = iota // queued or on the air
	nativeDelivered
	nativeExpired // dropped at the retry limit or on a full queue
)

// heldAck is one TCP ACK held by the driver. The held copy owns one
// reference to pkt and releases it once the ACK leaves the driver
// without a native replay. Its compressed bytes live in the record, so
// the per-peer lists' arrays are the only storage held ACKs use, and
// they keep it across calls.
type heldAck struct {
	pkt     *packet.Packet
	buf     [rohc.MaxCompressedLen]byte // compressed form (4-bit MSN; anchored at assembly)
	n       uint8                       // bytes of buf in use
	msn     uint8                       // full master sequence number, for rohc.AppendAnchor
	cid     byte                        // flow context id
	readyAt sim.Time                    // when the NIC can see it (DMA complete)
	expires sim.Time                    // ModeTimer deadline
	counted bool                        // already counted in Acct (first ride)
	// native is the fate of the packet's native copy (opportunistic
	// mode only): a held ACK whose native copy is known-delivered may
	// be discarded safely; an in-flight one blocks riding of it and
	// its successors.
	native nativeFate
}

// data returns the held ACK's compressed bytes.
func (h *heldAck) data() []byte { return h.buf[:h.n] }

// releaseAll drops the held copies' references and returns hs emptied,
// keeping its array.
func releaseAll(hs []heldAck) []heldAck {
	for i := range hs {
		hs[i].pkt.Release()
	}
	clear(hs)
	return hs[:0]
}

// dropFront removes hs[:n], moving the rest to the front of the same
// array.
func dropFront(hs []heldAck, n int) []heldAck {
	if n == 0 {
		return hs
	}
	m := copy(hs, hs[n:])
	clear(hs[m:])
	return hs[:m]
}

// peerState tracks HACK state toward one MAC peer. Its two lists own
// the held ACKs and keep their arrays when they empty.
type peerState struct {
	state    RecoveryState
	moreData bool
	pending  []heldAck // compressed, not yet ridden on an LL ACK
	// unconfirmed holds ridden ACKs awaiting implicit confirmation;
	// they re-ride every link-layer ACK until Progress confirms them
	// (§3.4) or a resync abandons the chain.
	unconfirmed []heldAck
	holdTimer   *sim.Timer

	// syncSeen marks that the currently retained generation has
	// already survived one SYNC indication — one full Block ACK
	// generation (the Block ACK and every BAR-elicited retransmission
	// of it) was lost. A second SYNC without intervening Progress
	// means two consecutive generations are gone; the state machine
	// re-anchors instead of stretching the MSN chain further.
	syncSeen bool
}

// held reports whether any compressed state (pending or retained) is
// alive toward this peer.
func (ps *peerState) held() bool {
	return len(ps.pending) > 0 || len(ps.unconfirmed) > 0
}

// Driver is the per-station HACK driver. Wire EnqueueNative, ForwardUp
// and (for ModeOpportunistic) WithdrawNative before use, then install
// it as the station's mac.Hooks.
type Driver struct {
	sched *sim.Scheduler
	cfg   Config

	comp *rohc.Compressor
	dec  *rohc.Decompressor

	peers map[mac.Addr]*peerState
	// last and lastAddr remember the latest peer looked up: a
	// client's driver has one peer, and an AP's sees a peer's frames
	// and ACKs in runs.
	last     *peerState
	lastAddr mac.Addr

	// EnqueueNative transmits a TCP ACK as an ordinary packet (MAC
	// transmit queue), taking the packet's reference. It reports
	// false when the queue was full and the packet was dropped.
	// Required.
	EnqueueNative func(dst mac.Addr, p *packet.Packet) bool
	// ForwardUp receives reconstituted TCP ACKs extracted from
	// link-layer ACKs (AP: toward the wire; client: into the local
	// stack), with their references. Required.
	ForwardUp func(from mac.Addr, p *packet.Packet)
	// WithdrawNative removes a still-queued native copy (opportunistic
	// mode); it reports whether the packet was found and removed.
	WithdrawNative func(dst mac.Addr, p *packet.Packet) bool
	// Pool supplies the ACKs the decompressor reconstructs. Nil
	// allocates each one (see packet.Pool).
	Pool *packet.Pool

	// Acct accumulates Table 2's accounting.
	Acct stats.AckAccounting
	// Resyncs counts chain abandonments (StateResyncing entries that
	// tore down live compressed state). Zero in lossless steady state.
	Resyncs uint64
	// Decomp aggregates decompression results (failures must stay 0 in
	// healthy runs — the paper's §4.3 claim).
	DecompDuplicates uint64
	DecompFailures   uint64
	FailNoAnchor     uint64
	FailNoContext    uint64
	FailCRC          uint64
}

// NewDriver creates a driver bound to sched.
func NewDriver(sched *sim.Scheduler, cfg Config) *Driver {
	return &Driver{
		sched: sched,
		cfg:   cfg.withDefaults(),
		comp:  rohc.NewCompressor(),
		dec:   rohc.NewDecompressor(),
		peers: make(map[mac.Addr]*peerState),
	}
}

func (d *Driver) peer(a mac.Addr) *peerState {
	if d.last != nil && d.lastAddr == a {
		return d.last
	}
	p, ok := d.peers[a]
	if !ok {
		p = &peerState{}
		d.peers[a] = p
	}
	d.last, d.lastAddr = p, a
	return p
}

// setState moves the recovery machine toward dst to a new state,
// emitting the transition probe. No-op when the state is unchanged.
func (d *Driver) setState(dst mac.Addr, ps *peerState, to RecoveryState, cause trace.Cause) {
	if ps.state == to {
		return
	}
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Emit(trace.Event{T: d.sched.Now(), Kind: trace.KindHackState,
			Sta: uint16(d.cfg.Addr), Peer: uint16(dst),
			From: trace.DriverState(ps.state).String(), To: trace.DriverState(to).String(), Cause: cause.String()})
	}
	ps.state = to
}

// SubmitAck intercepts an outgoing pure TCP ACK destined to dst,
// taking the caller's reference. Anything that is not a pure ACK must
// bypass the driver.
func (d *Driver) SubmitAck(dst mac.Addr, p *packet.Packet) {
	if !p.IsTCPAck() {
		panic("hack: SubmitAck on non-ACK packet")
	}
	ps := d.peer(dst)
	switch d.cfg.Mode {
	case ModeOff:
		d.sendNative(dst, p)
	case ModeMoreData:
		if !ps.moreData || len(ps.pending) >= maxHeld || !d.hold(ps, p, 0) {
			d.goNative(dst, ps, p)
			return
		}
		d.setState(dst, ps, StateCompressing, trace.CauseHold)
	case ModeOpportunistic:
		// Contend natively and register a compressed copy with the NIC;
		// whichever path wins the medium first carries the ACK. (The
		// recovery machine's native gate does not apply: the native
		// copy is the authoritative one and riding is gated on
		// withdrawing it.) The mode retains nothing across lost
		// link-layer ACKs, so each copy travels as a self-contained IR
		// refresh — decodable however large the gap in what the peer's
		// decompressor has seen. Beyond the descriptor-table bound the
		// copy is simply not registered: the native is authoritative,
		// so skipping the compressed path loses nothing.
		held := false
		if len(ps.pending) < maxHeld {
			if t, ok := p.Tuple(); ok {
				d.comp.Refresh(t)
			}
			if held = d.hold(ps, p, 0); held {
				p.Retain() // the native copy travels with its own reference
			}
		}
		if !d.sendNative(dst, p) && held {
			// Queue overflow: the native copy is gone.
			ps.pending[len(ps.pending)-1].native = nativeExpired
		}
	case ModeTimer:
		if len(ps.pending) >= maxHeld ||
			!d.hold(ps, p, d.sched.Now()+holdTimeout) {
			d.goNative(dst, ps, p)
			return
		}
		d.setState(dst, ps, StateCompressing, trace.CauseHold)
		d.armHoldTimer(dst, ps)
	}
}

// NativeResolved reports the fate of a natively-transmitted TCP ACK
// toward dst: delivered (confirmed by the MAC) or expired at the retry
// limit. Wire the MAC's OnMSDUResolved to this. The packet is only
// compared, never kept.
//
// The recovery machine does not gate on native delivery: every native
// send flags the flow for an IR refresh, so the chain's next
// compressed ACK re-establishes the decompressor context absolutely
// whether or not (and whenever) the native arrives. Only opportunistic
// mode consumes the resolution, to decide the fate of the packet's
// held copy, if it still has one.
func (d *Driver) NativeResolved(dst mac.Addr, p *packet.Packet, delivered bool) {
	if d.cfg.Mode != ModeOpportunistic {
		return
	}
	fate := nativeExpired
	if delivered {
		fate = nativeDelivered
	}
	ps := d.peer(dst)
	for i := range ps.pending {
		if ps.pending[i].pkt == p {
			ps.pending[i].native = fate
			return
		}
	}
}

// hold compresses p into the peer's pending set, where the caller's
// reference now lives; false means the ACK cannot travel compressed
// (no context yet) and must go natively.
func (d *Driver) hold(ps *peerState, p *packet.Packet, expires sim.Time) bool {
	h := heldAck{pkt: p, readyAt: d.sched.Now() + driverLatency, expires: expires}
	data, msn, ok := d.comp.Compress(h.buf[:0], p)
	if !ok {
		return false
	}
	tuple, _ := p.Tuple()
	h.n, h.msn, h.cid = uint8(len(data)), msn, d.comp.CID(tuple)
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Emit(trace.Event{T: d.sched.Now(), Kind: trace.KindROHCPacket,
			Sta: uint16(d.cfg.Addr), IR: rohc.IsIR(data), Bytes: len(data)})
	}
	ps.pending = append(ps.pending, h)
	return true
}

// goNative sends p natively from a holding mode. Any live compressed
// state toward the peer is torn down first: a native interleaved with
// compressed state would re-anchor the two codec ends asymmetrically
// (the compressor absorbs it at send time only if it is newer than the
// chain tip; the decompressor absorbs it whenever it is newer than the
// last *delivered* state), forking the stride predictors. The machine
// therefore never mixes the two paths — it resyncs, then goes native.
func (d *Driver) goNative(dst mac.Addr, ps *peerState, p *packet.Packet) {
	if ps.held() {
		d.enterResync(dst, ps, trace.CauseNativeInterleave)
	}
	d.sendNative(dst, p)
}

// sendNative transmits p as an ordinary packet, passing on the
// caller's reference, and reports whether the MAC queued it. The
// compressor absorbs it (if it advances the flow), which flags the
// flow for an IR refresh: the decompressor observes the native
// whenever — and whether — it arrives, and the IR covers every other
// ordering.
func (d *Driver) sendNative(dst mac.Addr, p *packet.Packet) bool {
	d.comp.Observe(p)
	d.Acct.NativeAcks++
	d.Acct.NativeAckBytes += uint64(p.Len())
	return d.EnqueueNative(dst, p)
}

// enterResync abandons the compressed chain toward the peer: every
// held ACK is dropped from the compressed path and a conservative
// native replay re-anchors each flow from its last acknowledged state
// — all never-ridden pending ACKs (they carry SACK state TCP has not
// seen) plus, for flows with retained-but-unconfirmed state only, the
// newest retained ACK (cumulative acknowledgment makes the older ones
// redundant).
//
// The replay is strictly newer than — or equal to — the chain tip of
// every affected flow, so the compressor absorbs it at send and flags
// the flow refreshed: when the chain reopens, the first compressed ACK
// per flow travels as a self-contained IR refresh, making the teardown
// safe no matter which replay natives arrive, in what order, or when.
// Reopening therefore does not wait on the replay — the next held ACK
// restarts compression immediately. Replayed ACKs pass their held
// references to the native path; the discarded rest are released.
func (d *Driver) enterResync(dst mac.Addr, ps *peerState, cause trace.Cause) {
	pending, unconf := ps.pending, ps.unconfirmed
	ps.syncSeen = false
	if d.cfg.Mode == ModeTimer && ps.holdTimer != nil {
		d.sched.Cancel(ps.holdTimer)
	}
	if len(pending) == 0 && len(unconf) == 0 {
		return
	}
	d.Resyncs++
	d.setState(dst, ps, StateResyncing, cause)

	// Newest retained ACK per flow, for flows with no pending member
	// (pending replays supersede retained state of the same flow):
	// newest[cid] is one more than its index in unconf, 0 for none, and
	// order lists those flows by first retained ACK.
	var inPending [256]bool
	for i := range pending {
		inPending[pending[i].cid] = true
	}
	var newest [256]int
	var order [256]byte
	flows := 0
	for i := range unconf {
		cid := unconf[i].cid
		if inPending[cid] {
			continue
		}
		if newest[cid] == 0 {
			order[flows] = cid
			flows++
		}
		newest[cid] = i + 1
	}
	for i := range unconf {
		if newest[unconf[i].cid] != i+1 {
			unconf[i].pkt.Release()
		}
	}
	for _, cid := range order[:flows] {
		d.sendNative(dst, unconf[newest[cid]-1].pkt)
	}
	for i := range pending {
		d.sendNative(dst, pending[i].pkt)
	}
	clear(pending)
	clear(unconf)
	ps.pending, ps.unconfirmed = pending[:0], unconf[:0]
}

// armHoldTimer schedules the ModeTimer flush for the earliest expiry.
// The per-peer timer is persistent: allocated (with its callback) on
// first use and Reset thereafter.
func (d *Driver) armHoldTimer(dst mac.Addr, ps *peerState) {
	if ps.holdTimer != nil && ps.holdTimer.Pending() {
		return
	}
	if len(ps.pending) == 0 {
		return
	}
	if ps.holdTimer == nil {
		ps.holdTimer = sim.NewTimer(func() { d.flushExpired(dst, ps) })
	}
	d.sched.Reset(ps.holdTimer, ps.pending[0].expires)
}

// flushExpired handles a ModeTimer hold-timeout: at least one held ACK
// exhausted its piggyback window without an opportunity, so the
// opportunity stream toward this peer has dried up — the chain resyncs
// and the replay delivers every held ACK natively.
func (d *Driver) flushExpired(dst mac.Addr, ps *peerState) {
	now := d.sched.Now()
	if len(ps.pending) == 0 || ps.pending[0].expires > now {
		d.armHoldTimer(dst, ps)
		return
	}
	d.enterResync(dst, ps, trace.CauseTimerFlush)
}

// frameSafe checks the §3.4 re-ride guards for an assembled frame:
// the total payload must fit the MAC's ACK-timeout allowance (a longer
// response would blow the peer's response deadline and fail the
// exchange deterministically), and each flow's MSN span must stay
// clear of the decompressor's 7-bit duplicate-filter wrap.
func (d *Driver) frameSafe(unconf, ride []heldAck) bool {
	total := 0
	var first [256]uint8
	var seen [256]bool
	check := func(h *heldAck) bool {
		total += int(h.n) + 1 // +1: worst-case anchor widening
		if total > d.cfg.MaxPayload {
			return false
		}
		if !seen[h.cid] {
			seen[h.cid], first[h.cid] = true, h.msn
			return true
		}
		return h.msn-first[h.cid] < msnRetainLimit
	}
	for i := range unconf {
		if !check(&unconf[i]) {
			return false
		}
	}
	for i := range ride {
		if !check(&ride[i]) {
			return false
		}
	}
	return true
}

// BuildAckPayload implements mac.Hooks: append the compressed frame
// for the link-layer ACK to peer to dst. Retained (unconfirmed) ACKs
// are re-sent until confirmed (§3.4); ready pending ACKs join them and
// become unconfirmed.
func (d *Driver) BuildAckPayload(dst []byte, peer mac.Addr) []byte {
	ps := d.peer(peer)
	now := d.sched.Now()

	// Split pending into NIC-visible (ready) and not-yet-DMA'd. readyAt
	// is monotone in submission order, so ride is a prefix, viewed in
	// place; pending keeps ps.pending[rest:].
	rest := 0
	for rest < len(ps.pending) && ps.pending[rest].readyAt <= now {
		rest++
	}
	ride := ps.pending[:rest]

	if d.cfg.Mode == ModeOpportunistic {
		// Ride only ACKs whose native copy is still withdrawable.
		// Known-delivered natives supersede their compressed copies
		// (discard, chains re-anchored identically); a native still in
		// flight blocks riding of its successors — a compressed
		// successor overtaking it on a link-layer ACK would reference
		// chain state the decompressor has not seen yet.
		// The assembled payload must respect the same MaxPayload
		// budget as the holding modes (the MAC's ACK-timeout allowance
		// is sized to it): stop withdrawing once the budget is spent —
		// the remaining copies' native twins are still queued, so they
		// block here and contend natively or ride a later LL ACK.
		// kept compacts in place: it never passes the scan.
		budget := 0
		kept := ride[:0]
		for i := range ride {
			h := &ride[i]
			if budget+int(h.n)+1 > d.cfg.MaxPayload {
				rest = i
				break
			}
			if d.WithdrawNative != nil && d.WithdrawNative(peer, h.pkt) {
				budget += int(h.n) + 1
				kept = append(kept, *h)
				continue
			}
			if h.native != nativeInFlight {
				// Delivered: superseded by its own native copy.
				// Expired: CRC+re-anchor absorb the damage.
				h.pkt.Release()
				continue
			}
			// In flight: keep it and everything after it pending.
			rest = i
			break
		}
		ride = kept
	} else if !d.frameSafe(ps.unconfirmed, ride) {
		// Guard violation: the chain has outgrown what one link-layer
		// ACK can safely carry. Re-anchor instead of emitting a frame
		// the peer would time out on or mis-deduplicate.
		d.enterResync(peer, ps, trace.CauseGuard)
		return dst
	}

	// Assemble the frame, widening the first MSN of each flow to the
	// 8-bit anchor form (paper §3.4) — done here, at frame-assembly
	// time, because which ACK leads the frame is only known now.
	payload := dst
	var anchored [256 / 8]byte // per-CID bitmap; frames carry few flows
	emit := func(h *heldAck) {
		if bit := &anchored[h.cid/8]; *bit&(1<<(h.cid%8)) == 0 {
			*bit |= 1 << (h.cid % 8)
			payload = rohc.AppendAnchor(payload, h.data(), h.msn)
			return
		}
		payload = append(payload, h.data()...)
	}
	for i := range ps.unconfirmed {
		emit(&ps.unconfirmed[i])
	}
	for i := range ride {
		emit(&ride[i])
		if !ride[i].counted {
			ride[i].counted = true
			d.Acct.CompressedAcks++
			d.Acct.CompressedBytes += uint64(ride[i].n)
			d.Acct.UncompressedOf += uint64(ride[i].pkt.Len())
		}
	}
	if d.cfg.Mode == ModeOpportunistic {
		// No retention: reliability belongs to the native path here.
		// Retained re-rides would go stale against the native
		// re-anchors that flow constantly in this mode; if the
		// link-layer ACK is lost, the peer retransmits its data and
		// TCP's cumulative ACKs recover.
		// (So unconfirmed stays empty in this mode.)
		releaseAll(ride)
		ps.pending = dropFront(ps.pending, rest)
		return payload
	}
	ps.unconfirmed = append(ps.unconfirmed, ride...)
	ps.pending = dropFront(ps.pending, rest)

	if d.cfg.Mode == ModeMoreData && !ps.moreData {
		// No more data is coming (Figure 7): if this link-layer ACK is
		// lost there will be no further piggyback opportunity, so the
		// chain closes here. The resync replays each flow's newest
		// cleared ACK natively (an ignorable duplicate if the
		// link-layer ACK arrived; the absolute re-anchor if it was
		// lost) and flushes ACKs that missed the DMA window (the
		// Figures 3-4 race) to native transmission.
		d.enterResync(peer, ps, trace.CauseChainClose)
	}
	return payload
}

// AckPayloadReceived implements mac.Hooks: decompress a HACK frame
// found on a link-layer ACK and forward the reconstituted TCP ACKs.
func (d *Driver) AckPayloadReceived(peer mac.Addr, payload []byte) {
	d.dec.Pool = d.Pool // Pool is wired after NewDriver
	res, err := d.dec.Decompress(payload)
	d.DecompDuplicates += uint64(res.Duplicates)
	d.DecompFailures += uint64(res.Failures)
	d.FailNoAnchor += uint64(res.FailNoAnchor)
	d.FailNoContext += uint64(res.FailNoContext)
	d.FailCRC += uint64(res.FailCRC)
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Emit(trace.Event{T: d.sched.Now(), Kind: trace.KindROHCResult, Sta: uint16(d.cfg.Addr),
			Packets: len(res.Packets), Dups: res.Duplicates, Failures: res.Failures})
	}
	if err != nil {
		// A parse error drops the whole frame, reconstructions included.
		d.DecompFailures++
		for _, p := range res.Packets {
			p.Release()
		}
		return
	}
	for _, p := range res.Packets {
		d.ForwardUp(peer, p)
	}
}

// ObserveNativeAck must be called for every natively-received pure TCP
// ACK so the decompressor's context stays synchronized (and recovers
// from damage).
func (d *Driver) ObserveNativeAck(p *packet.Packet) {
	d.dec.Observe(p)
}

// DataIndication implements mac.Hooks: a data frame arrived from peer.
// When the MORE DATA latch drops, pending ACKs whose DMA completed in
// time still ride this frame's link-layer ACK; BuildAckPayload (which
// the MAC calls when that ACK goes out) flushes the rest natively.
func (d *Driver) DataIndication(peer mac.Addr, ind mac.DataInd) {
	ps := d.peer(peer)
	ps.moreData = ind.MoreData

	switch {
	case ind.Sync:
		// The peer gave up soliciting our previous link-layer ACK
		// (Figure 8): our retained compressed ACKs were never
		// delivered. The first gap keeps them — they ride the next
		// link-layer ACK. A second gap without intervening Progress
		// means two consecutive Block ACK generations were lost; the
		// retained chain is no longer worth stretching toward the MSN
		// guard, so the machine re-anchors now.
		if len(ps.unconfirmed) == 0 {
			break
		}
		if ps.syncSeen {
			d.enterResync(peer, ps, trace.CauseSyncGap)
			break
		}
		ps.syncSeen = true
	case ind.Progress:
		// The peer demonstrably received our previous link-layer ACK
		// (Figures 5a/5b): retained state is delivered.
		ps.unconfirmed = releaseAll(ps.unconfirmed)
		ps.syncSeen = false
	}
}

// PendingAcks reports held-but-unridden ACKs toward peer.
//
// Test accessor: node.
func (d *Driver) PendingAcks(peer mac.Addr) int { return len(d.peer(peer).pending) }

// UnconfirmedAcks reports retained ACKs awaiting confirmation.
//
// Test accessor: node.
func (d *Driver) UnconfirmedAcks(peer mac.Addr) int { return len(d.peer(peer).unconfirmed) }
