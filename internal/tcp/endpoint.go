// Package tcp implements a standards-shaped TCP endpoint for the
// simulator: three-way handshake, NewReno congestion control (slow
// start, congestion avoidance, fast retransmit/fast recovery), RFC
// 6298 retransmission timeouts with exponential backoff, delayed ACKs,
// RFC 7323 timestamps, window scaling, and RFC 2018 selective
// acknowledgments.
//
// TCP/HACK requires that end-host TCP be completely unmodified
// (paper §2.2); this package therefore contains no HACK-specific
// behaviour whatsoever. The HACK driver (internal/hack) intercepts the
// pure ACK packets this endpoint emits, and TCP's own machinery — ACK
// clocking, retransmission timers — must tolerate whatever delivery
// pattern results. The pathological interactions §3.2 describes (an
// entire congestion window of ACKs held at a stalled client) emerge
// naturally from this implementation.
//
// Payload bytes are not materialized: segments carry lengths, and the
// receiver reconstructs the in-order byte count. Everything that
// matters to header compression — sequence numbers, ACK numbers,
// windows, options — is exact.
package tcp

import (
	"fmt"

	"tcphack/internal/packet"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// Connection states (the subset a unidirectional-transfer simulator
// exercises; no simultaneous open/close, no TIME_WAIT modelling).
type state int

const (
	stateClosed state = iota
	stateListen
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait // our FIN sent, awaiting its ACK
	stateDone    // transfer complete (FIN exchanged)
)

func (s state) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateListen:
		return "listen"
	case stateSynSent:
		return "syn-sent"
	case stateSynRcvd:
		return "syn-rcvd"
	case stateEstablished:
		return "established"
	case stateFinWait:
		return "fin-wait"
	case stateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config parameterizes an endpoint.
type Config struct {
	Local      packet.Addr
	LocalPort  uint16
	Remote     packet.Addr
	RemotePort uint16

	// RcvWindow is the advertised receive window in bytes (default 1 MiB).
	RcvWindow uint32

	// Tracer, when non-nil, receives TCP probes (retransmissions, RTO
	// expiries, congestion-window changes), labeled by LocalPort.
	// Tracers observe only; they never perturb protocol state.
	Tracer trace.Tracer
}

// The stack's fixed parameters, Linux-like. Every endpoint offers
// timestamps and SACK in its SYN, and every peer is this stack, so both
// are on once the handshake is done.
const (
	// MSS is the maximum segment size every endpoint advertises.
	MSS = 1460
	// effectiveMSS is the payload of a full segment: the MSS less the
	// 12 bytes of the timestamps option, like real stacks do.
	effectiveMSS = MSS - 12
	// windowScale is the advertised window shift.
	windowScale = 7
	// delAckTimeout bounds ACK delay. An endpoint acks every second
	// full segment — the paper's baseline assumption ("one TCP ACK
	// packet for every two TCP data packets") — or at this timeout.
	delAckTimeout = 100 * sim.Millisecond
	// initialCwnd is the initial congestion window in segments (RFC
	// 6928).
	initialCwnd = 10
	// minRTO clamps the retransmission timeout.
	minRTO = 200 * sim.Millisecond
)

func (c Config) withDefaults() Config {
	if c.RcvWindow == 0 {
		c.RcvWindow = 1 << 20
	}
	return c
}

// DefaultConfig returns the configuration used throughout the
// experiments: Linux-like defaults.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

// Stats counts endpoint events.
type Stats struct {
	SegsSent        uint64 // data segments transmitted (incl. rtx)
	PureAcksSent    uint64
	Retransmits     uint64
	FastRecoveries  uint64
	Timeouts        uint64
	DupAcksReceived uint64
	BytesDelivered  uint64 // in-order payload delivered to the app
	BytesAcked      uint64 // payload acknowledged at the sender
}

// interval is a [start, end) range in sequence space.
type interval struct{ s, e uint32 }

// Endpoint is one side of a TCP connection.
type Endpoint struct {
	sched *sim.Scheduler
	cfg   Config

	// Output transmits an IP packet toward the peer; the packet's
	// reference passes to it. Required.
	Output func(*packet.Packet)
	// Pool supplies every packet the endpoint builds. Nil allocates
	// each one (see packet.Pool).
	Pool *packet.Pool
	// OnDeliver is called with each in-order payload span delivered
	// to the application (receiver side).
	OnDeliver func(n int)
	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnDone fires when a finite transfer finishes (sender: FIN acked;
	// receiver: FIN delivered).
	OnDone func()

	Stats Stats

	state state
	ipID  uint16

	// Negotiated.
	peerWScale uint8

	// Sender.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	sndMax   uint32 // high-water mark: one past the highest seq sent
	cwnd     uint32
	ssthresh uint32
	caAcc    uint32
	peerWnd  uint32
	dupAcks  int
	inRec    bool
	recover  uint32
	rtxHigh  uint32 // recovery retransmission high-water mark (RFC 6675)
	// sampleFloor gates RTT sampling: during a loss epoch the
	// receiver's echoed timestamp freezes at the pre-hole segment, so
	// a sample would measure the whole stall and blow up SRTT. Only
	// ACKs beyond the highest sequence sent before the last loss event
	// yield samples.
	sampleFloor uint32
	rtxTimer    *sim.Timer
	rto         sim.Duration
	srtt        sim.Duration
	rttvar      sim.Duration
	appTotal    uint64 // bytes the app asked to send (maxUint64 = endless)
	appQueued   uint64 // bytes assigned sequence numbers so far
	finSent     bool
	sacked      []interval // peer-reported SACK scoreboard

	// Receiver.
	irs         uint32
	rcvNxt      uint32
	ooo         []interval // recency-ordered out-of-order spans
	delackCount int
	delackTimer *sim.Timer
	tsRecent    uint32
	finSeq      uint32
	finPending  bool
}

// NewEndpoint creates an endpoint bound to sched.
func NewEndpoint(sched *sim.Scheduler, cfg Config) *Endpoint {
	ep := &Endpoint{
		sched:     sched,
		cfg:       cfg.withDefaults(),
		OnDeliver: func(int) {},
		Output:    func(*packet.Packet) { panic("tcp: Output not set") },
	}
	ep.rto = sim.Second
	// Both protocol timers are persistent: allocated once here with
	// their callbacks and Reset on every (re)arming, so the per-ACK
	// timer churn costs nothing.
	ep.rtxTimer = sim.NewTimer(ep.onRTO)
	ep.delackTimer = sim.NewTimer(func() {
		if ep.delackCount > 0 {
			ep.sendAck()
		}
	})
	return ep
}

// Listen makes the endpoint accept an incoming connection.
func (ep *Endpoint) Listen() {
	ep.state = stateListen
}

// Connect initiates the three-way handshake.
func (ep *Endpoint) Connect() {
	ep.iss = 1
	ep.sndUna, ep.sndNxt, ep.sndMax = ep.iss, ep.iss+1, ep.iss+1
	ep.state = stateSynSent
	ep.sendSyn(false)
	ep.armRTX()
}

// Send queues n application bytes for transmission (sender side). It
// may be called once with the transfer size or repeatedly.
func (ep *Endpoint) Send(n uint64) {
	ep.appTotal += n
	ep.trySend()
}

// SendForever marks the endpoint as an unbounded bulk sender.
func (ep *Endpoint) SendForever() {
	ep.appTotal = 1 << 62
	ep.trySend()
}

// tuple returns the flow five-tuple (local → remote).
func (ep *Endpoint) Tuple() packet.FiveTuple {
	return packet.FiveTuple{
		Src: ep.cfg.Local, Dst: ep.cfg.Remote,
		SrcPort: ep.cfg.LocalPort, DstPort: ep.cfg.RemotePort,
		Proto: packet.ProtoTCP,
	}
}

// seqGT reports a > b in sequence space.
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

// seqGE reports a ≥ b in sequence space.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

func (ep *Endpoint) nowTS() uint32 {
	return uint32(ep.sched.Now() / sim.Millisecond)
}

// newPacket builds an IP/TCP packet toward the peer, with timestamps,
// from the endpoint's Pool. The packet holds its TCP header and SACK
// blocks inline, and the caller's reference passes on with Output.
func (ep *Endpoint) newPacket(flags byte, seq uint32, payload int) *packet.Packet {
	ep.ipID++
	p := ep.Pool.Get(packet.ProtoTCP)
	p.IP.TTL, p.IP.ID = 64, ep.ipID
	p.IP.Src, p.IP.Dst = ep.cfg.Local, ep.cfg.Remote
	p.PayloadLen = payload
	t := p.TCP
	t.SrcPort, t.DstPort = ep.cfg.LocalPort, ep.cfg.RemotePort
	t.Seq, t.Flags = seq, flags
	t.Window = uint16(ep.cfg.RcvWindow >> windowScale)
	if flags&packet.FlagACK != 0 {
		p.TCP.Ack = ep.rcvNxt
	}
	p.TCP.Opt.HasTimestamps = true
	p.TCP.Opt.TSVal = ep.nowTS()
	p.TCP.Opt.TSEcr = ep.tsRecent
	return p
}

func (ep *Endpoint) sendSyn(ack bool) {
	flags := byte(packet.FlagSYN)
	seq := ep.iss
	if ack {
		flags |= packet.FlagACK
	}
	p := ep.newPacket(flags, seq, 0)
	// A SYN's window field is never scaled (RFC 7323 §2.2): advertise
	// the true window clamped to 16 bits.
	if ep.cfg.RcvWindow > 0xffff {
		p.TCP.Window = 0xffff
	} else {
		p.TCP.Window = uint16(ep.cfg.RcvWindow)
	}
	p.TCP.Opt.MSS = MSS
	p.TCP.Opt.WindowScale = windowScale + 1 // +1: encoded as shift+1
	p.TCP.Opt.SACKPermitted = true
	ep.Output(p)
}

// Input processes a packet from the network. It keeps no reference to
// p — SACK edges are copied into the scoreboard — so the caller
// releases p once Input returns.
func (ep *Endpoint) Input(p *packet.Packet) {
	if p.TCP == nil {
		return
	}
	t := p.TCP
	switch ep.state {
	case stateListen:
		if t.Flags&packet.FlagSYN != 0 && t.Flags&packet.FlagACK == 0 {
			ep.handleSyn(p)
		}
	case stateSynSent:
		if t.Flags&packet.FlagSYN != 0 && t.Flags&packet.FlagACK != 0 {
			ep.handleSynAck(p)
		}
	case stateSynRcvd:
		if t.Flags&packet.FlagACK != 0 && seqGT(t.Ack, ep.sndUna) {
			ep.sndUna = t.Ack
			ep.enterEstablished()
		}
		// Data may ride the final handshake ACK.
		if p.PayloadLen > 0 && ep.state == stateEstablished {
			ep.handleSegment(p)
		}
	case stateEstablished, stateFinWait:
		ep.handleSegment(p)
	case stateDone, stateClosed:
		// Stray retransmissions: re-ack so the peer can finish.
		if p.PayloadLen > 0 || t.Flags&packet.FlagFIN != 0 {
			ep.sendAck()
		}
	}
}

func (ep *Endpoint) handleSyn(p *packet.Packet) {
	t := p.TCP
	ep.irs = t.Seq
	ep.rcvNxt = t.Seq + 1
	ep.negotiate(t)
	ep.iss = 1
	ep.sndUna, ep.sndNxt, ep.sndMax = ep.iss, ep.iss+1, ep.iss+1
	ep.state = stateSynRcvd
	ep.sendSyn(true)
	ep.armRTX()
}

func (ep *Endpoint) handleSynAck(p *packet.Packet) {
	t := p.TCP
	if !seqGT(t.Ack, ep.sndUna) {
		return
	}
	ep.irs = t.Seq
	ep.rcvNxt = t.Seq + 1
	ep.negotiate(t)
	ep.sndUna = t.Ack
	ep.enterEstablished()
	ep.sendAck()
}

// negotiate applies the peer's SYN options.
func (ep *Endpoint) negotiate(t *packet.TCP) {
	if t.Opt.WindowScale != 0 {
		ep.peerWScale = t.Opt.WindowScale - 1
	}
	if t.Opt.HasTimestamps {
		ep.tsRecent = t.Opt.TSVal
	}
	ep.peerWnd = uint32(t.Window) // SYN windows are unscaled
}

func (ep *Endpoint) enterEstablished() {
	ep.state = stateEstablished
	ep.cwnd = initialCwnd * effectiveMSS
	ep.ssthresh = 1 << 30
	ep.disarmRTX()
	if ep.OnEstablished != nil {
		ep.OnEstablished()
	}
	ep.trySend()
}

// handleSegment processes an established-state segment: ACK side
// first, then payload/FIN side.
func (ep *Endpoint) handleSegment(p *packet.Packet) {
	t := p.TCP
	if t.Opt.HasTimestamps {
		// RFC 7323: update tsRecent from segments that cover rcvNxt.
		if !seqGT(t.Seq, ep.rcvNxt) {
			ep.tsRecent = t.Opt.TSVal
		}
	}
	if t.Flags&packet.FlagACK != 0 {
		ep.handleAck(p)
	}
	if p.PayloadLen > 0 || t.Flags&packet.FlagFIN != 0 {
		ep.handleData(p)
	}
}
