package rohc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"tcphack/internal/packet"
)

// TestCRC8TableMatchesBitwise golden-tests the lookup-table CRC
// against the bitwise RFC 5795 reference over random inputs and the
// edge cases (empty, single bytes, long runs).
func TestCRC8TableMatchesBitwise(t *testing.T) {
	if got, want := crc8(nil), byte(0xff); got != want {
		t.Errorf("crc8(nil) = %#x, want %#x", got, want)
	}
	for b := 0; b < 256; b++ {
		one := []byte{byte(b)}
		if crc8(one) != crc8Bitwise(one) {
			t.Fatalf("crc8([%#x]) = %#x, bitwise %#x", b, crc8(one), crc8Bitwise(one))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(128))
		rng.Read(buf)
		if got, want := crc8(buf), crc8Bitwise(buf); got != want {
			t.Fatalf("crc8(%x) = %#x, bitwise %#x", buf, got, want)
		}
	}
}

func testAck(seed int64) *packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	return &packet.Packet{
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoTCP, ID: uint16(rng.Intn(1 << 16)),
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(192, 168, 0, 10),
		},
		TCP: &packet.TCP{
			SrcPort: 5001, DstPort: 5001,
			Seq: rng.Uint32(), Ack: rng.Uint32(), Flags: packet.FlagACK,
			Window: uint16(rng.Intn(1 << 16)),
			Opt:    packet.TCPOptions{HasTimestamps: true, TSVal: rng.Uint32(), TSEcr: rng.Uint32()},
		},
	}
}

// TestHotPathAllocFree pins the per-packet ROHC primitives at zero
// allocations: the table CRC, the memoized CID lookup, and the
// scratch-buffer header CRC (after its buffer has warmed).
func TestHotPathAllocFree(t *testing.T) {
	p := testAck(1)
	wire := p.MarshalAppend(nil)
	if n := testing.AllocsPerRun(200, func() { crc8(wire) }); n != 0 {
		t.Errorf("crc8: %v allocs/op, want 0", n)
	}

	c := NewCompressor()
	tuple := tupleOf(p)
	c.CID(tuple) // warm the memo (one MD5 + map insert)
	if n := testing.AllocsPerRun(200, func() { c.CID(tuple) }); n != 0 {
		t.Errorf("memoized CID: %v allocs/op, want 0", n)
	}
	if c.CID(tuple) != CID(tuple) {
		t.Error("memoized CID disagrees with the MD5 definition")
	}

	var scratch []byte
	headerCRC(p, &scratch) // warm the scratch buffer
	want := crc8(wire)
	if n := testing.AllocsPerRun(200, func() { headerCRC(p, &scratch) }); n != 0 {
		t.Errorf("headerCRC (warm scratch): %v allocs/op, want 0", n)
	}
	if got := headerCRC(p, &scratch); got != want {
		t.Errorf("headerCRC = %#x, want crc8(Marshal) = %#x", got, want)
	}
}

// TestAppendAnchorMatchesAnchor checks the anchor path against the
// anchored wire form written out by hand for fresh, already-anchored,
// and malformed inputs, with and without a prefix in dst.
func TestAppendAnchorMatchesAnchor(t *testing.T) {
	cases := []struct{ data, want []byte }{
		// unanchored: ExtMSN set, the full MSN inserted after the flags
		{[]byte{0x11, 0x23, 0x99, 0xab}, []byte{0x11, 0xa3, 0x55, 0x99, 0xab}},
		// already anchored (ExtMSN set): verbatim
		{[]byte{0x11, 0x83, 0x07, 0x99, 0xab}, []byte{0x11, 0x83, 0x07, 0x99, 0xab}},
		// malformed, too short: verbatim
		{[]byte{0x42}, []byte{0x42}},
	}
	for _, tc := range cases {
		data, want := tc.data, tc.want
		got := AppendAnchor(nil, data, 0x55)
		if string(got) != string(want) {
			t.Errorf("AppendAnchor(%x) = %x, want %x", data, got, want)
		}
		pre := []byte{0xde, 0xad}
		got = AppendAnchor(pre, data, 0x55)
		if string(got[:2]) != string(pre[:2]) || string(got[2:]) != string(want) {
			t.Errorf("AppendAnchor with prefix = %x, want %x + %x", got, pre, want)
		}
	}
}

// TestCompressDecompressStayInSync exercises the memoized/scratch paths
// end to end: a run of ACKs compressed then decompressed must
// reconstruct bit-identical packets (CRC-validated), exactly as the
// pre-optimization implementation did.
func TestCompressDecompressStayInSync(t *testing.T) {
	comp, dec := NewCompressor(), NewDecompressor()
	p := testAck(2)
	comp.Observe(p)
	dec.Observe(p)
	for i := 0; i < 50; i++ {
		p = p.Clone()
		p.IP.ID++
		p.TCP.Ack += 2920
		p.TCP.Opt.TSVal++
		data, msn, ok := comp.Compress(nil, p)
		if !ok {
			t.Fatalf("ack %d did not compress", i)
		}
		res, err := dec.Decompress(AppendAnchor(nil, data, msn))
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if res.Failures != 0 || len(res.Packets) != 1 {
			t.Fatalf("ack %d: %+v", i, res)
		}
		got, want := res.Packets[0].MarshalAppend(nil), p.MarshalAppend(nil)
		if string(got) != string(want) {
			t.Fatalf("ack %d reconstructed differently:\n got %x\nwant %x", i, got, want)
		}
	}
}

// ackStream is one TCP flow's ACKs, advanced in place so that producing
// the next ACK allocates nothing, with a compressor and a decompressor
// that have both seen its first ACK natively.
type ackStream struct {
	p    *packet.Packet
	comp *Compressor
	dec  *Decompressor
}

func newAckStream(seed int64) *ackStream {
	s := &ackStream{p: testAck(seed), comp: NewCompressor(), dec: NewDecompressor()}
	s.dec.Pool = &packet.Pool{}
	s.comp.Observe(s.p)
	s.dec.Observe(s.p)
	return s
}

// next advances the ACK by one full-sized segment.
func (s *ackStream) next() *packet.Packet {
	s.p.IP.ID++
	s.p.TCP.Ack += 2920
	s.p.TCP.Opt.TSVal++
	return s.p
}

// frames compresses the stream's next n ACKs, one anchored ACK per
// frame, as the driver frames a lone held ACK.
func (s *ackStream) frames(tb testing.TB, n int) [][]byte {
	var all []byte
	ends := make([]int, n)
	for i := range ends {
		data, msn, ok := s.comp.Compress(nil, s.next())
		if !ok {
			tb.Fatalf("ack %d did not compress", i)
		}
		all = AppendAnchor(all, data, msn)
		ends[i] = len(all)
	}
	out := make([][]byte, n)
	for i, start := 0, 0; i < n; start, i = ends[i], i+1 {
		out[i] = all[start:ends[i]]
	}
	return out
}

// TestCodecAllocFree pins the per-ACK codec at zero allocations on warm
// objects: Compress appending into caller storage with room for
// MaxCompressedLen, and Decompress reusing its Result.Packets array and
// drawing its reconstructions from a warm pool.
func TestCodecAllocFree(t *testing.T) {
	s := newAckStream(3)
	frames := s.frames(t, 201)
	buf := make([]byte, 0, MaxCompressedLen)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := s.comp.Compress(buf[:0], s.next()); !ok {
			t.Fatal("ACK did not compress")
		}
	}); n != 0 {
		t.Errorf("Compress into caller storage: %v allocs/op, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		res, err := s.dec.Decompress(frames[i])
		i++
		if err != nil || len(res.Packets) != 1 {
			t.Fatalf("frame %d: %v, %d packets", i, err, len(res.Packets))
		}
		res.Packets[0].Release()
	}); n != 0 {
		t.Errorf("Decompress: %v allocs/op, want 0", n)
	}
}

// TestMaxCompressedLen builds the widest record Compress can emit, an
// IR refresh with timestamps and three SACK blocks whose every varint
// takes five bytes, and checks that it is exactly MaxCompressedLen.
func TestMaxCompressedLen(t *testing.T) {
	c := NewCompressor()
	p := testAck(5)
	c.Observe(p) // the next Compress is an IR refresh
	p = p.Clone()
	big := uint32(1) << 31
	p.TCP.Seq, p.TCP.Ack = big, big
	p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr = big, big
	p.IP.ID = 1 << 15
	for k := uint32(1); k <= 3; k++ {
		left := p.TCP.Ack + k<<29
		p.TCP.Opt.SACKBlocks = append(p.TCP.Opt.SACKBlocks, [2]uint32{left, left + 1<<28})
	}
	data, _, ok := c.Compress(nil, p)
	if !ok || !IsIR(data) {
		t.Fatalf("Compress = %x, ok=%v; want an IR refresh", data, ok)
	}
	if len(data) != MaxCompressedLen {
		t.Errorf("widest IR refresh is %d bytes, MaxCompressedLen is %d", len(data), MaxCompressedLen)
	}
}

// BenchmarkCompress measures Compress in append form on a warm flow.
func BenchmarkCompress(b *testing.B) {
	s := newAckStream(6)
	buf := make([]byte, 0, MaxCompressedLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.comp.Compress(buf[:0], s.next()); !ok {
			b.Fatal("ACK did not compress")
		}
	}
}

// BenchmarkDecompress measures Decompress of one-ACK frames on a warm
// decompressor, releasing each reconstruction back to its pool.
func BenchmarkDecompress(b *testing.B) {
	s := newAckStream(7)
	frames := s.frames(b, b.N+1)
	res, err := s.dec.Decompress(frames[0]) // the IR refresh; warms the pool
	if err != nil || len(res.Packets) != 1 {
		b.Fatalf("IR refresh: %v, %d packets", err, len(res.Packets))
	}
	res.Packets[0].Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		res, err := s.dec.Decompress(frames[i])
		if err != nil || len(res.Packets) != 1 {
			b.Fatalf("frame %d: %v, %d packets", i, err, len(res.Packets))
		}
		res.Packets[0].Release()
	}
}

// FuzzDecompress feeds the decompressor one arbitrary frame amid valid
// traffic of one flow: an IR refresh establishes the flow, the fuzzed
// frame follows, then the compressor refreshes the flow with a second
// IR and sends one delta ACK. Decompress must never panic, and once the
// caller has released every packet it returned, the pool must have
// none outstanding.
//
// When the fuzzed frame delivers no packet, the second IR must
// re-establish the flow and the delta must decode to the original ACK,
// whatever the frame did to the context. A frame that does deliver
// packets passed CRC-8 on each; the decompressor trusts a CRC-valid
// header by design, so a forged newer state can hold off a real IR,
// and for such frames only the first property is checked.
func FuzzDecompress(f *testing.F) {
	s := newAckStream(11)
	fr := s.frames(f, 4)
	ir, delta := fr[0], fr[1]
	f.Add([]byte{})
	f.Add(ir)                                                                   // a replay: a duplicate
	f.Add(delta)                                                                // the flow's next ACK
	f.Add(append(slices.Clone(fr[2]), fr[3]...))                                // two ACKs, the second unanchored
	f.Add(ir[:len(ir)-1])                                                       // truncated
	f.Add(append(slices.Clone(delta[:len(delta)-1]), delta[len(delta)-1]^0xff)) // CRC mismatch
	f.Fuzz(func(t *testing.T, frame []byte) {
		s := newAckStream(11)
		pool := s.dec.Pool
		start := pool.Outstanding()
		var held []*packet.Packet
		decode := func(fr []byte) (Result, error) {
			res, err := s.dec.Decompress(fr)
			held = append(held, res.Packets...)
			return res, err
		}
		if res, err := decode(s.frames(t, 1)[0]); err != nil || len(res.Packets) != 1 {
			t.Fatalf("first IR: %v, %d packets", err, len(res.Packets))
		}
		res, _ := decode(frame)
		accepted := len(res.Packets) > 0

		s.comp.Refresh(tupleOf(s.p))
		irRes, irErr := decode(s.frames(t, 1)[0])
		d := s.frames(t, 1)[0]
		want := s.p.MarshalAppend(nil)
		dRes, dErr := decode(d)
		if !accepted {
			if irErr != nil || len(irRes.Packets) != 1 {
				t.Errorf("IR after the fuzzed frame: %v, %d packets (failures %d, duplicates %d); want it delivered",
					irErr, len(irRes.Packets), irRes.Failures, irRes.Duplicates)
			}
			if dErr != nil || len(dRes.Packets) != 1 || !bytes.Equal(dRes.Packets[0].MarshalAppend(nil), want) {
				t.Errorf("delta after the IR: %v, %d packets; want the original ACK", dErr, len(dRes.Packets))
			}
		}
		for _, p := range held {
			p.Release()
		}
		if n := pool.Outstanding(); n != start {
			t.Errorf("%d packets outstanding after releasing every returned packet, want %d", n, start)
		}
	})
}

// crc8Bitwise is the direct RFC 5795 §5.3.1.1 shift-register CRC — the
// reference implementation crc8's lookup table is golden-tested
// against.
func crc8Bitwise(data []byte) byte {
	crc := byte(0xff)
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
