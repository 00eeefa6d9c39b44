package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func tcpAck(seq, ack uint32) *Packet {
	return &Packet{
		IP: IPv4{TTL: 64, Protocol: ProtoTCP, ID: 7, Src: IP(10, 0, 0, 2), Dst: IP(192, 168, 1, 1)},
		TCP: &TCP{
			SrcPort: 50000, DstPort: 5001,
			Seq: seq, Ack: ack, Flags: FlagACK, Window: 4096,
		},
	}
}

func TestMarshalUnmarshalRoundtripTCP(t *testing.T) {
	p := tcpAck(100, 2920)
	p.TCP.Opt = TCPOptions{
		HasTimestamps: true, TSVal: 123456, TSEcr: 654321,
		SACKBlocks: [][2]uint32{{3000, 4460}},
	}
	b := p.Marshal()
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.TCP == nil {
		t.Fatal("lost TCP header")
	}
	if !reflect.DeepEqual(p.TCP, q.TCP) {
		t.Errorf("TCP headers differ:\n got %+v\nwant %+v", q.TCP, p.TCP)
	}
	if q.IP.Src != p.IP.Src || q.IP.Dst != p.IP.Dst || q.IP.ID != p.IP.ID {
		t.Errorf("IP header differs: %+v vs %+v", q.IP, p.IP)
	}
	if q.PayloadLen != 0 {
		t.Errorf("payload len %d, want 0", q.PayloadLen)
	}
}

func TestMarshalUnmarshalUDP(t *testing.T) {
	p := &Packet{
		IP:         IPv4{TTL: 64, Protocol: ProtoUDP, Src: IP(1, 2, 3, 4), Dst: IP(5, 6, 7, 8)},
		UDP:        &UDP{SrcPort: 9, DstPort: 10},
		PayloadLen: 1472,
	}
	b := p.Marshal()
	if len(b) != IPv4HeaderLen+UDPHeaderLen+1472 {
		t.Fatalf("marshal len %d", len(b))
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.UDP == nil || q.UDP.SrcPort != 9 || q.UDP.DstPort != 10 {
		t.Errorf("UDP header %+v", q.UDP)
	}
	if q.PayloadLen != 1472 {
		t.Errorf("payload %d, want 1472", q.PayloadLen)
	}
}

func TestChecksumValidation(t *testing.T) {
	p := tcpAck(1, 2)
	b := p.Marshal()
	// Verify self-check passes, then corrupt one byte everywhere and
	// ensure some checksum fails (IP or TCP depending on position).
	if _, err := Unmarshal(b); err != nil {
		t.Fatalf("clean packet rejected: %v", err)
	}
	for i := range b {
		c := bytes.Clone(b)
		c[i] ^= 0xff
		if _, err := Unmarshal(c); err == nil {
			// Flipping only the urgent pointer together with checksum
			// cannot happen with one byte; any single-byte flip must fail.
			t.Errorf("corruption at byte %d undetected", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10), // short
		append([]byte{0x65}, make([]byte, 19)...), // IPv6 version nibble
		append([]byte{0x46}, make([]byte, 23)...), // IHL 6 (options)
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	// Truncated TCP.
	p := tcpAck(1, 2)
	b := p.Marshal()
	if _, err := Unmarshal(b[:IPv4HeaderLen+10]); err == nil {
		t.Error("truncated TCP accepted")
	}
}

func TestOptionEncoding(t *testing.T) {
	o := TCPOptions{MSS: 1460, WindowScale: 8, SACKPermitted: true, HasTimestamps: true, TSVal: 1, TSEcr: 0}
	p := tcpAck(0, 0)
	p.TCP.Flags = FlagSYN
	p.TCP.Opt = o
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := q.TCP.Opt
	if got.MSS != 1460 || got.WindowScale != 8 || !got.SACKPermitted || !got.HasTimestamps {
		t.Errorf("options lost: %+v", got)
	}
	// WindowScale encodes shift+1 so shift 0 is distinguishable from absent.
	p2 := tcpAck(0, 0)
	p2.TCP.Opt.WindowScale = 1 // shift 0
	q2, err := Unmarshal(p2.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q2.TCP.Opt.WindowScale != 1 {
		t.Errorf("shift-0 wscale roundtrip = %d, want 1", q2.TCP.Opt.WindowScale)
	}
}

func TestOptionWireLenPadding(t *testing.T) {
	var o TCPOptions
	if o.wireLen() != 0 {
		t.Errorf("empty options len %d", o.wireLen())
	}
	o.HasTimestamps = true
	if o.wireLen() != 12 { // 10 rounded to 12
		t.Errorf("ts options len %d, want 12", o.wireLen())
	}
	o.SACKBlocks = [][2]uint32{{1, 2}, {3, 4}}
	if o.wireLen()%4 != 0 {
		t.Errorf("options len %d not 4-aligned", o.wireLen())
	}
}

func TestIsTCPAck(t *testing.T) {
	p := tcpAck(1, 100)
	if !p.IsTCPAck() {
		t.Error("pure ACK not detected")
	}
	p.PayloadLen = 10
	if p.IsTCPAck() {
		t.Error("data segment treated as pure ACK")
	}
	p.PayloadLen = 0
	p.TCP.Flags |= FlagSYN
	if p.IsTCPAck() {
		t.Error("SYN-ACK treated as pure ACK")
	}
	u := &Packet{IP: IPv4{Protocol: ProtoUDP}, UDP: &UDP{}}
	if u.IsTCPAck() {
		t.Error("UDP treated as TCP ACK")
	}
}

func TestClone(t *testing.T) {
	p := tcpAck(5, 6)
	p.TCP.Opt.SACKBlocks = [][2]uint32{{1, 2}}
	q := p.Clone()
	q.TCP.Seq = 99
	q.TCP.Opt.SACKBlocks[0][0] = 77
	if p.TCP.Seq != 5 {
		t.Error("clone aliases TCP header")
	}
	if p.TCP.Opt.SACKBlocks[0][0] != 1 {
		t.Error("clone aliases SACK blocks")
	}
}

func TestTupleReverse(t *testing.T) {
	p := tcpAck(0, 0)
	tp, ok := p.Tuple()
	if !ok {
		t.Fatal("no tuple for TCP packet")
	}
	r := tp.Reverse()
	if r.Src != tp.Dst || r.SrcPort != tp.DstPort || r.Reverse() != tp {
		t.Errorf("reverse broken: %v / %v", tp, r)
	}
	u := &Packet{IP: IPv4{Protocol: ProtoUDP}, UDP: &UDP{}}
	if _, ok := u.Tuple(); ok {
		t.Error("tuple for UDP")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 0001 f203 f4f5 f6f7 = 0x220d (ones
	// complement of ddf2).
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Errorf("checksum = %#x, want 0x220d", got)
	}
	// Odd length.
	if got := Checksum([]byte{0xff}); got != 0x00ff {
		t.Errorf("odd checksum = %#x", got)
	}
}

// Property: Marshal→Unmarshal is the identity on randomized valid ACKs.
func TestRoundtripProperty(t *testing.T) {
	f := func(seq, ack, tsv, tse uint32, win uint16, id uint16, sackL, sackR uint32, hasTS, hasSACK bool) bool {
		p := tcpAck(seq, ack)
		p.IP.ID = id
		p.TCP.Window = win
		if hasTS {
			p.TCP.Opt.HasTimestamps = true
			p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr = tsv, tse
		}
		if hasSACK {
			if sackR < sackL {
				sackL, sackR = sackR, sackL
			}
			p.TCP.Opt.SACKBlocks = [][2]uint32{{sackL, sackR}}
		}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p.TCP, q.TCP) && p.IP.ID == q.IP.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	p := tcpAck(1, 2)
	if s := p.String(); s == "" {
		t.Error("empty TCP string")
	}
	u := &Packet{IP: IPv4{Protocol: ProtoUDP, Src: IP(1, 2, 3, 4)}, UDP: &UDP{SrcPort: 1, DstPort: 2}}
	if s := u.String(); s == "" {
		t.Error("empty UDP string")
	}
	raw := &Packet{IP: IPv4{Protocol: 89}}
	if s := raw.String(); s == "" {
		t.Error("empty raw string")
	}
	if flagString(0) != "-" {
		t.Error("zero flags should format as -")
	}
	if flagString(FlagSYN|FlagACK) != "SA" {
		t.Errorf("SYN|ACK = %q", flagString(FlagSYN|FlagACK))
	}
}

func BenchmarkMarshalACK(b *testing.B) {
	p := tcpAck(1, 2)
	p.TCP.Opt.HasTimestamps = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Marshal()
	}
}

func BenchmarkUnmarshalACK(b *testing.B) {
	p := tcpAck(1, 2)
	p.TCP.Opt.HasTimestamps = true
	buf := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Unmarshal parses a wire-format IP datagram produced by Marshal (or
// any conformant encoder without IP options). It validates checksums.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < IPv4HeaderLen {
		return nil, errors.New("packet: short IPv4 header")
	}
	if b[0]>>4 != 4 {
		return nil, errors.New("packet: not IPv4")
	}
	ihl := int(b[0]&0xf) * 4
	if ihl != IPv4HeaderLen {
		return nil, errors.New("packet: IP options unsupported")
	}
	if Checksum(b[:IPv4HeaderLen]) != 0 {
		return nil, errors.New("packet: bad IP checksum")
	}
	var p Packet
	p.IP = IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:]),
		TTL:      b[8],
		Protocol: b[9],
		Length:   binary.BigEndian.Uint16(b[2:]),
	}
	copy(p.IP.Src[:], b[12:16])
	copy(p.IP.Dst[:], b[16:20])
	total := int(p.IP.Length)
	if total > len(b) || total < ihl {
		return nil, errors.New("packet: bad IP length")
	}
	seg := b[ihl:total]
	switch p.IP.Protocol {
	case ProtoTCP:
		if len(seg) < TCPHeaderLen {
			return nil, errors.New("packet: short TCP header")
		}
		if pseudoChecksum(&p.IP, ProtoTCP, seg) != 0 {
			return nil, errors.New("packet: bad TCP checksum")
		}
		dataOff := int(seg[12]>>4) * 4
		if dataOff < TCPHeaderLen || dataOff > len(seg) {
			return nil, errors.New("packet: bad TCP data offset")
		}
		opt, err := parseTCPOptions(seg[TCPHeaderLen:dataOff])
		if err != nil {
			return nil, err
		}
		p.TCP = &TCP{
			SrcPort: binary.BigEndian.Uint16(seg[0:]),
			DstPort: binary.BigEndian.Uint16(seg[2:]),
			Seq:     binary.BigEndian.Uint32(seg[4:]),
			Ack:     binary.BigEndian.Uint32(seg[8:]),
			Flags:   seg[13],
			Window:  binary.BigEndian.Uint16(seg[14:]),
			Urgent:  binary.BigEndian.Uint16(seg[18:]),
			Opt:     opt,
		}
		p.PayloadLen = len(seg) - dataOff
	case ProtoUDP:
		if len(seg) < UDPHeaderLen {
			return nil, errors.New("packet: short UDP header")
		}
		if pseudoChecksum(&p.IP, ProtoUDP, seg) != 0 {
			return nil, errors.New("packet: bad UDP checksum")
		}
		p.UDP = &UDP{
			SrcPort: binary.BigEndian.Uint16(seg[0:]),
			DstPort: binary.BigEndian.Uint16(seg[2:]),
			Length:  binary.BigEndian.Uint16(seg[4:]),
		}
		p.PayloadLen = len(seg) - UDPHeaderLen
	default:
		p.PayloadLen = len(seg)
	}
	return &p, nil
}

func parseTCPOptions(b []byte) (TCPOptions, error) {
	var o TCPOptions
	for i := 0; i < len(b); {
		kind := b[i]
		switch kind {
		case 0: // EOL
			return o, nil
		case 1: // NOP
			i++
			continue
		}
		if i+1 >= len(b) {
			return o, errors.New("packet: truncated TCP option")
		}
		l := int(b[i+1])
		if l < 2 || i+l > len(b) {
			return o, errors.New("packet: bad TCP option length")
		}
		body := b[i+2 : i+l]
		switch kind {
		case 2:
			if len(body) != 2 {
				return o, errors.New("packet: bad MSS option")
			}
			o.MSS = binary.BigEndian.Uint16(body)
		case 3:
			if len(body) != 1 {
				return o, errors.New("packet: bad wscale option")
			}
			o.WindowScale = body[0] + 1
		case 4:
			o.SACKPermitted = true
		case 8:
			if len(body) != 8 {
				return o, errors.New("packet: bad timestamp option")
			}
			o.HasTimestamps = true
			o.TSVal = binary.BigEndian.Uint32(body)
			o.TSEcr = binary.BigEndian.Uint32(body[4:])
		case 5:
			if len(body)%8 != 0 || len(body) == 0 {
				return o, errors.New("packet: bad SACK option")
			}
			for j := 0; j < len(body); j += 8 {
				o.SACKBlocks = append(o.SACKBlocks, [2]uint32{
					binary.BigEndian.Uint32(body[j:]),
					binary.BigEndian.Uint32(body[j+4:]),
				})
			}
		}
		i += l
	}
	return o, nil
}

// Marshal encodes the packet's headers into wire format. The payload
// is represented by PayloadLen zero bytes so checksums are stable and
// sizes exact.
func (p *Packet) Marshal() []byte {
	b := make([]byte, p.Len())
	p.marshalInto(b)
	return b
}
