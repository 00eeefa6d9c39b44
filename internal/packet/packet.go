// Package packet implements wire-format IPv4, TCP, and UDP headers.
//
// The simulator moves parsed header structs around for speed, but the
// formats here are real: MarshalAppend produces RFC-conformant bytes
// with valid checksums. ROHC compression (internal/rohc) operates on
// these exact bytes, so compressed-ACK sizes measured in experiments
// reflect genuine header redundancy, not a toy encoding.
//
// Hot paths that marshal per packet pass MarshalAppend a retained
// scratch buffer, which makes it allocation-free once the buffer has
// grown to the working size.
//
// # Ownership
//
// The simulator builds every packet with Pool.Get from its network's
// pool (one per node.Network), and the packet goes back to the pool
// when its reference count drops to zero. Get hands the caller one
// reference. The rules for that reference are:
//
//   - Transfer: passing a packet on passes the reference with it. This
//     covers tcp.Endpoint.Output, node.Link.Send to Deliver, the node's
//     routing and WiFi send path, hack.Driver.SubmitAck, EnqueueNative,
//     ForwardUp, the held ACKs a resync replays natively, and
//     mac.Station.EnqueuePacket.
//   - Retain: a holder that keeps the packet while also passing it on
//     calls Retain first. A pooled mac.MSDU owns the reference it was
//     enqueued with and releases it when the MSDU is recycled. The
//     node's receive path retains before posting a delivered packet
//     to its stack, because the sender's MSDU holds the packet until
//     its Block ACK resolves. In opportunistic mode the HACK driver's
//     held copy retains, because the native copy travels with its own
//     reference.
//   - Release: every terminal fate calls Release. These are the
//     return of tcp.Endpoint.Input (TCP copies what it keeps, SACK
//     edges included), the UDP sink, a route with no next hop, a MAC
//     queue-full drop, a held ACK that is confirmed, that a resync
//     discards or whose opportunistic copy is done, and a
//     reconstruction the ROHC header CRC rejects.
//
// The last Release scrubs the packet: headers are zeroed and TCP and
// UDP set to nil, so a holder that kept a packet without a reference
// crashes or changes a golden result instead of quietly reading
// another packet's headers. Releasing a packet that has no reference
// left panics. A packet from a nil pool, or built by hand as a
// composite literal, has no pool: Retain and Release are no-ops and
// it is never recycled, which is how unit tests build endpoints and
// drivers without a network.
package packet

import (
	"encoding/binary"
	"fmt"
)

// Addr is an IPv4 address.
type Addr [4]byte

// IP constructs an Addr from four octets.
func IP(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Protocol numbers used in the IPv4 header.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Header sizes in bytes.
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20 // without options
)

// IPv4 is an IPv4 header (no options — the simulator never emits
// them, and ROHC-TCP's static chain assumes their absence).
type IPv4 struct {
	TOS      byte
	ID       uint16
	TTL      byte
	Protocol byte
	Src, Dst Addr
	// Length is the total datagram length (header + payload).
	// Marshalling fills it from the payload length.
	Length uint16
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// TCPOptions carries the TCP options the simulator's stack uses. A
// zero value means "option absent".
type TCPOptions struct {
	// MSS advertises the maximum segment size (SYN segments only).
	MSS uint16
	// WindowScale is the window shift count + 1 (0 = absent), so that
	// an advertised shift of 0 is representable.
	WindowScale uint8
	// SACKPermitted is sent on SYNs to negotiate selective ACKs.
	SACKPermitted bool
	// Timestamps: TSVal/TSEcr per RFC 7323. Present if HasTimestamps.
	HasTimestamps bool
	TSVal, TSEcr  uint32
	// SACKBlocks lists up to 3 (left, right) sequence edges (RFC 2018;
	// 3 when combined with timestamps).
	SACKBlocks [][2]uint32
}

// TCP is a TCP header plus options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Urgent           uint16
	Opt              TCPOptions
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	// Length is header + payload; marshalling computes it.
	Length uint16
}

// Packet is one IP datagram as it traverses the simulated network:
// parsed headers plus an opaque payload length. Payload bytes
// themselves are not materialized (the workloads are bulk transfers of
// synthetic data), but PayloadLen enters all length and checksum
// fields so the wire image is the right size.
type Packet struct {
	IP         IPv4
	TCP        *TCP // nil unless IP.Protocol == ProtoTCP
	UDP        *UDP // nil unless IP.Protocol == ProtoUDP
	PayloadLen int

	// pool and refs implement recycling (see Pool). Get points TCP,
	// UDP and the SACK list at the inline storage below, so one object
	// holds the whole datagram.
	pool *Pool
	refs int32
	tcp  TCP
	udp  UDP
	sack [4][2]uint32
}

// Len returns the total IP datagram length in bytes.
func (p *Packet) Len() int {
	n := IPv4HeaderLen + p.PayloadLen
	switch {
	case p.TCP != nil:
		n += TCPHeaderLen + p.TCP.Opt.wireLen()
	case p.UDP != nil:
		n += UDPHeaderLen
	}
	return n
}

// IsTCPAck reports whether p is a pure TCP ACK: an ACK-flagged segment
// carrying no payload and no SYN/FIN/RST. These are the packets HACK
// compresses into link-layer acknowledgments.
func (p *Packet) IsTCPAck() bool {
	return p.TCP != nil && p.PayloadLen == 0 &&
		p.TCP.Flags&FlagACK != 0 &&
		p.TCP.Flags&(FlagSYN|FlagFIN|FlagRST) == 0
}

// Clone returns a deep copy of p that belongs to no pool.
//
// Test accessor: rohc, tcp.
func (p *Packet) Clone() *Packet {
	q := &Packet{IP: p.IP, PayloadLen: p.PayloadLen}
	if p.TCP != nil {
		q.tcp = *p.TCP
		if p.TCP.Opt.SACKBlocks != nil {
			q.tcp.Opt.SACKBlocks = append(q.sack[:0], p.TCP.Opt.SACKBlocks...)
		}
		q.TCP = &q.tcp
	}
	if p.UDP != nil {
		q.udp = *p.UDP
		q.UDP = &q.udp
	}
	return q
}

func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("TCP %v:%d>%v:%d seq=%d ack=%d len=%d flags=%s",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			p.TCP.Seq, p.TCP.Ack, p.PayloadLen, flagString(p.TCP.Flags))
	case p.UDP != nil:
		return fmt.Sprintf("UDP %v:%d>%v:%d len=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, p.PayloadLen)
	}
	return fmt.Sprintf("IP %v>%v proto=%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol, p.PayloadLen)
}

func flagString(f byte) string {
	names := []struct {
		bit  byte
		name string
	}{
		{FlagSYN, "S"}, {FlagFIN, "F"}, {FlagRST, "R"},
		{FlagPSH, "P"}, {FlagACK, "A"}, {FlagURG, "U"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			s += n.name
		}
	}
	if s == "" {
		return "-"
	}
	return s
}

// wireLen returns the encoded length of the options, padded to a
// 4-byte boundary.
func (o *TCPOptions) wireLen() int {
	n := 0
	if o.MSS != 0 {
		n += 4
	}
	if o.WindowScale != 0 {
		n += 3
	}
	if o.SACKPermitted {
		n += 2
	}
	if o.HasTimestamps {
		n += 10
	}
	if len(o.SACKBlocks) > 0 {
		n += 2 + 8*len(o.SACKBlocks)
	}
	return (n + 3) &^ 3
}

func (o *TCPOptions) marshal(b []byte) int {
	i := 0
	if o.MSS != 0 {
		b[i], b[i+1] = 2, 4
		binary.BigEndian.PutUint16(b[i+2:], o.MSS)
		i += 4
	}
	if o.WindowScale != 0 {
		b[i], b[i+1], b[i+2] = 3, 3, o.WindowScale-1
		i += 3
	}
	if o.SACKPermitted {
		b[i], b[i+1] = 4, 2
		i += 2
	}
	if o.HasTimestamps {
		b[i], b[i+1] = 8, 10
		binary.BigEndian.PutUint32(b[i+2:], o.TSVal)
		binary.BigEndian.PutUint32(b[i+6:], o.TSEcr)
		i += 10
	}
	if len(o.SACKBlocks) > 0 {
		b[i], b[i+1] = 5, byte(2+8*len(o.SACKBlocks))
		i += 2
		for _, blk := range o.SACKBlocks {
			binary.BigEndian.PutUint32(b[i:], blk[0])
			binary.BigEndian.PutUint32(b[i+4:], blk[1])
			i += 8
		}
	}
	for i%4 != 0 {
		b[i] = 1 // NOP padding
		i++
	}
	return i
}

// MarshalAppend appends the packet's wire image to buf and returns the
// extended slice, allocating only when buf lacks capacity. Hot paths
// that marshal per packet (the ROHC header CRC) call it with a
// per-owner scratch buffer re-sliced to zero length, making the
// steady-state encode allocation-free:
//
//	c.scratch = p.MarshalAppend(c.scratch[:0])
func (p *Packet) MarshalAppend(buf []byte) []byte {
	n := p.Len()
	off := len(buf)
	if cap(buf)-off < n {
		grown := make([]byte, off+n, 2*(off+n))
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:off+n]
	}
	seg := buf[off:]
	// Scratch reuse can hand back stale bytes; the encoders below skip
	// reserved fields and the zero payload, so clear first (compiles to
	// one memclr).
	for i := range seg {
		seg[i] = 0
	}
	p.marshalInto(seg)
	return buf
}

// marshalInto encodes the packet into b, which must be exactly Len()
// zeroed bytes.
func (p *Packet) marshalInto(b []byte) {
	ip := &p.IP
	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(p.Len()))
	binary.BigEndian.PutUint16(b[4:], ip.ID)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	copy(b[12:16], ip.Src[:])
	copy(b[16:20], ip.Dst[:])
	binary.BigEndian.PutUint16(b[10:], 0)
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:IPv4HeaderLen]))

	switch {
	case p.TCP != nil:
		t := p.TCP
		seg := b[IPv4HeaderLen:]
		binary.BigEndian.PutUint16(seg[0:], t.SrcPort)
		binary.BigEndian.PutUint16(seg[2:], t.DstPort)
		binary.BigEndian.PutUint32(seg[4:], t.Seq)
		binary.BigEndian.PutUint32(seg[8:], t.Ack)
		optLen := t.Opt.wireLen()
		seg[12] = byte((TCPHeaderLen+optLen)/4) << 4
		seg[13] = t.Flags
		binary.BigEndian.PutUint16(seg[14:], t.Window)
		binary.BigEndian.PutUint16(seg[18:], t.Urgent)
		t.Opt.marshal(seg[TCPHeaderLen : TCPHeaderLen+optLen])
		binary.BigEndian.PutUint16(seg[16:], 0)
		binary.BigEndian.PutUint16(seg[16:], pseudoChecksum(ip, ProtoTCP, seg))
	case p.UDP != nil:
		u := p.UDP
		seg := b[IPv4HeaderLen:]
		binary.BigEndian.PutUint16(seg[0:], u.SrcPort)
		binary.BigEndian.PutUint16(seg[2:], u.DstPort)
		binary.BigEndian.PutUint16(seg[4:], uint16(UDPHeaderLen+p.PayloadLen))
		binary.BigEndian.PutUint16(seg[6:], 0)
		binary.BigEndian.PutUint16(seg[6:], pseudoChecksum(ip, ProtoUDP, seg))
	}
}

// Checksum computes the RFC 1071 Internet checksum over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header.
func pseudoChecksum(ip *IPv4, proto byte, seg []byte) uint16 {
	var ph [12]byte
	copy(ph[0:4], ip.Src[:])
	copy(ph[4:8], ip.Dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	var sum uint32
	for i := 0; i < 12; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ph[i:]))
	}
	for i := 0; i+1 < len(seg); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(seg[i:]))
	}
	if len(seg)%2 == 1 {
		sum += uint32(seg[len(seg)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// FiveTuple identifies a TCP flow.
type FiveTuple struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            byte
}

// Tuple extracts the flow five-tuple of a TCP packet; ok is false for
// non-TCP packets.
func (p *Packet) Tuple() (t FiveTuple, ok bool) {
	if p.TCP == nil {
		return t, false
	}
	return FiveTuple{
		Src: p.IP.Src, Dst: p.IP.Dst,
		SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort,
		Proto: ProtoTCP,
	}, true
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		Src: t.Dst, Dst: t.Src,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Proto: t.Proto,
	}
}

func (t FiveTuple) String() string {
	return fmt.Sprintf("%v:%d>%v:%d/%d", t.Src, t.SrcPort, t.Dst, t.DstPort, t.Proto)
}
