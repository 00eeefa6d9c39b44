package rohc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tcphack/internal/packet"
)

// flowGen generates successive pure ACKs of one TCP flow.
type flowGen struct {
	tuple packet.FiveTuple
	seq   uint32
	ack   uint32
	win   uint16
	tsv   uint32
	tse   uint32
	ts    bool
	ipID  uint16
}

func newFlow(ts bool) *flowGen {
	return &flowGen{
		tuple: packet.FiveTuple{
			Src: packet.IP(10, 0, 0, 2), Dst: packet.IP(192, 168, 0, 1),
			SrcPort: 50123, DstPort: 5001, Proto: packet.ProtoTCP,
		},
		seq: 1000, ack: 5000, win: 8192, tsv: 100, tse: 50, ts: ts,
	}
}

func (f *flowGen) ackPkt(ackAdvance uint32) *packet.Packet {
	f.ack += ackAdvance
	f.ipID++
	p := &packet.Packet{
		IP: packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, ID: f.ipID,
			Src: f.tuple.Src, Dst: f.tuple.Dst},
		TCP: &packet.TCP{
			SrcPort: f.tuple.SrcPort, DstPort: f.tuple.DstPort,
			Seq: f.seq, Ack: f.ack, Flags: packet.FlagACK, Window: f.win,
		},
	}
	if f.ts {
		f.tsv++
		f.tse++
		p.TCP.Opt.HasTimestamps = true
		p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr = f.tsv, f.tse
	}
	return p
}

// pair returns a compressor and decompressor that have both observed
// the flow's first native ACK.
func pair(f *flowGen) (*Compressor, *Decompressor) {
	c := NewCompressor()
	d := NewDecompressor()
	native := f.ackPkt(2920)
	c.Observe(native)
	d.Observe(native)
	return c, d
}

// compress1 compresses p as a standalone single-ACK frame (anchored).
func compress1(c *Compressor, p *packet.Packet) ([]byte, bool) {
	data, msn, ok := c.Compress(nil, p)
	if !ok {
		return nil, false
	}
	return AppendAnchor(nil, data, msn), true
}

// frame assembles compressed ACKs into one HACK frame, anchoring the
// first ACK of each flow like the driver does.
type frame struct {
	buf      []byte
	anchored map[byte]bool
}

func newFrame() *frame { return &frame{anchored: make(map[byte]bool)} }

func (fr *frame) add(c *Compressor, p *packet.Packet) bool {
	data, msn, ok := c.Compress(nil, p)
	if !ok {
		return false
	}
	t, _ := p.Tuple()
	cid := CID(t)
	if !fr.anchored[cid] {
		fr.anchored[cid] = true
		data = AppendAnchor(nil, data, msn)
	}
	fr.buf = append(fr.buf, data...)
	return true
}

func sameHeader(a, b *packet.Packet) bool {
	return bytes.Equal(a.MarshalAppend(nil), b.MarshalAppend(nil))
}

func TestRoundtripSteadyState(t *testing.T) {
	f := newFlow(true)
	c, d := pair(f)
	for i := 0; i < 100; i++ {
		orig := f.ackPkt(2920)
		data, ok := compress1(c, orig)
		if !ok {
			t.Fatalf("ack %d: no context", i)
		}
		res, err := d.Decompress(data)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if res.Failures != 0 || res.Duplicates != 0 {
			t.Fatalf("ack %d: failures=%d dups=%d", i, res.Failures, res.Duplicates)
		}
		if len(res.Packets) != 1 {
			t.Fatalf("ack %d: %d packets", i, len(res.Packets))
		}
		if !sameHeader(orig, res.Packets[0]) {
			t.Fatalf("ack %d: reconstruction differs\n got %v\nwant %v", i, res.Packets[0], orig)
		}
	}
}

func TestSteadyStateSize(t *testing.T) {
	// Constant stride, no timestamps: once the predictors lock on, the
	// compact (unanchored) form is 3 bytes — the paper's best case.
	// With timestamps the options byte brings it to 4.
	f := newFlow(false)
	c, _ := pair(f)
	var last int
	for i := 0; i < 10; i++ {
		data, _, ok := c.Compress(nil, f.ackPkt(2920))
		if !ok {
			t.Fatal("no context")
		}
		last = len(data)
	}
	if last != 3 {
		t.Errorf("steady-state size (no TS) = %d, want 3", last)
	}

	ft := newFlow(true)
	ct, _ := pair(ft)
	for i := 0; i < 10; i++ {
		data, _, ok := ct.Compress(nil, ft.ackPkt(2920))
		if !ok {
			t.Fatal("no context")
		}
		last = len(data)
	}
	if last != 4 {
		t.Errorf("steady-state size (TS) = %d, want 4", last)
	}
}

func TestAnchorForm(t *testing.T) {
	f := newFlow(false)
	c, _ := pair(f)
	c.Compress(nil, f.ackPkt(2920)) // first post-anchor ACK travels as IR
	data, msn, ok := c.Compress(nil, f.ackPkt(2920))
	if !ok {
		t.Fatal("no context")
	}
	anchored := AppendAnchor(nil, data, msn)
	if len(anchored) != len(data)+1 {
		t.Errorf("anchored len %d, want %d", len(anchored), len(data)+1)
	}
	if anchored[2] != msn {
		t.Errorf("anchor MSN byte %d, want %d", anchored[2], msn)
	}
	// Anchoring an anchored frame is a no-op.
	if again := AppendAnchor(nil, anchored, msn); len(again) != len(anchored) {
		t.Error("double anchor changed length")
	}
	// Degenerate input.
	if got := AppendAnchor(nil, []byte{1}, 5); len(got) != 1 {
		t.Error("short input mishandled")
	}
}

func TestCompressionRatioMatchesPaper(t *testing.T) {
	// The paper's Table 2 reports ~12× on 52-byte ACKs (40 bytes +
	// 12 of timestamp options), i.e. ≈4.4 bytes per compressed ACK.
	f := newFlow(true)
	c, d := pair(f)
	totalOrig, totalComp := 0, 0
	delivered := 0
	for frm := 0; frm < 50; frm++ {
		// 21 ACKs per frame: one delayed ACK per two packets of a
		// 42-MPDU A-MPDU.
		fr := newFrame()
		for i := 0; i < 21; i++ {
			orig := f.ackPkt(2920)
			before := len(fr.buf)
			if !fr.add(c, orig) {
				t.Fatal("no context")
			}
			totalOrig += orig.Len()
			totalComp += len(fr.buf) - before
		}
		res, err := d.Decompress(fr.buf)
		if err != nil || res.Failures != 0 {
			t.Fatalf("frame %d: err=%v failures=%d", frm, err, res.Failures)
		}
		delivered += len(res.Packets)
	}
	if delivered != 50*21 {
		t.Fatalf("delivered %d of %d", delivered, 50*21)
	}
	ratio := float64(totalOrig) / float64(totalComp)
	if ratio < 10 || ratio > 16 {
		t.Errorf("compression ratio = %.1f, want ≈12", ratio)
	}
}

func TestMultiAckFrame(t *testing.T) {
	f := newFlow(true)
	c, d := pair(f)
	fr := newFrame()
	var origs []*packet.Packet
	for i := 0; i < 64; i++ {
		orig := f.ackPkt(2920)
		if !fr.add(c, orig) {
			t.Fatal("no context")
		}
		origs = append(origs, orig)
	}
	res, err := d.Decompress(fr.buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 64 {
		t.Fatalf("decoded %d of 64", len(res.Packets))
	}
	for i := range origs {
		if !sameHeader(origs[i], res.Packets[i]) {
			t.Fatalf("ack %d differs", i)
		}
	}
}

func TestMSNDedup(t *testing.T) {
	f := newFlow(false)
	c, d := pair(f)
	fr := newFrame()
	for i := 0; i < 3; i++ {
		if !fr.add(c, f.ackPkt(2920)) {
			t.Fatal("no context")
		}
	}
	res, err := d.Decompress(fr.buf)
	if err != nil || len(res.Packets) != 3 {
		t.Fatalf("first delivery: %v, %d packets", err, len(res.Packets))
	}
	// The identical frame retransmitted (paper Fig. 6): all duplicates,
	// no deliveries, no failures.
	res, err = d.Decompress(fr.buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 0 || res.Duplicates != 3 || res.Failures != 0 {
		t.Errorf("retransmit: packets=%d dups=%d failures=%d, want 0/3/0",
			len(res.Packets), res.Duplicates, res.Failures)
	}
	// A frame carrying the old ACKs plus a new one delivers only the new.
	frame2 := append([]byte(nil), fr.buf...)
	newOrig := f.ackPkt(2920)
	data, msn, ok := c.Compress(nil, newOrig)
	if !ok {
		t.Fatal("no context")
	}
	// Within the same frame the old run anchors the CID; the new ACK
	// chains off it in compact form.
	frame2 = append(frame2, data...)
	_ = msn
	res, err = d.Decompress(frame2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 1 || res.Duplicates != 3 {
		t.Fatalf("mixed frame: packets=%d dups=%d", len(res.Packets), res.Duplicates)
	}
	if !sameHeader(newOrig, res.Packets[0]) {
		t.Error("new ACK reconstruction differs")
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	f := newFlow(true)
	c, _ := pair(f)
	orig := f.ackPkt(2920)
	data, _ := compress1(c, orig)
	// Flip each byte in turn; decompression must never deliver a
	// wrong packet silently (it may parse-fail or CRC-fail).
	for i := range data {
		f2 := newFlow(true)
		c2, d2 := pair(f2)
		o2 := f2.ackPkt(2920)
		d2data, _ := compress1(c2, o2)
		corrupted := bytes.Clone(d2data)
		corrupted[i] ^= 0x5a
		res, err := d2.Decompress(corrupted)
		if err != nil {
			continue // parse error: fine, nothing delivered
		}
		for _, p := range res.Packets {
			if !sameHeader(o2, p) {
				t.Errorf("byte %d: corrupted frame delivered wrong packet", i)
			}
		}
	}
}

func TestContextDamageAndRecovery(t *testing.T) {
	f := newFlow(false)
	c, d := pair(f)
	// Deliver one compressed ACK normally.
	a1 := f.ackPkt(2920)
	d1, _ := compress1(c, a1)
	if res, _ := d.Decompress(d1); len(res.Packets) != 1 {
		t.Fatal("setup delivery failed")
	}
	// Compress a2 but never deliver it (lost): contexts diverge.
	a2 := f.ackPkt(1460) // irregular advance → explicit delta
	compress1(c, a2)
	// a3 compressed against the post-a2 context; the decompressor is
	// still at post-a1. Reconstruction mismatches → CRC failure, no
	// bogus delivery.
	a3 := f.ackPkt(1460)
	d3, _ := compress1(c, a3)
	res, err := d.Decompress(d3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Packets {
		if !sameHeader(a3, p) {
			t.Fatal("divergent context delivered a wrong packet")
		}
	}
	if res.Failures == 0 {
		t.Error("context divergence not detected")
	}
	// A native ACK (newer cumulative state) re-anchors both ends;
	// compression resumes cleanly (paper: damage must not persist).
	a4 := f.ackPkt(2920)
	c.Observe(a4)
	d.Observe(a4)
	a5 := f.ackPkt(2920)
	d5, ok := compress1(c, a5)
	if !ok {
		t.Fatal("no context after refresh")
	}
	res, err = d.Decompress(d5)
	if err != nil || len(res.Packets) != 1 || !sameHeader(a5, res.Packets[0]) {
		t.Errorf("recovery failed: err=%v packets=%d failures=%d", err, len(res.Packets), res.Failures)
	}
}

func TestStaleNativeDoesNotDesync(t *testing.T) {
	// A native duplicate of an ACK that already travelled compressed
	// must not disturb either end's chain (the opportunistic-mode
	// interleaving).
	f := newFlow(false)
	c, d := pair(f)
	a1 := f.ackPkt(2920)
	d1, _ := compress1(c, a1)
	res, _ := d.Decompress(d1)
	if len(res.Packets) != 1 {
		t.Fatal("setup")
	}
	// The same a1 also travelled natively and arrives late.
	c.Observe(a1)
	d.Observe(a1)
	a2 := f.ackPkt(2920)
	d2, _ := compress1(c, a2)
	res, err := d.Decompress(d2)
	if err != nil || len(res.Packets) != 1 || res.Failures != 0 {
		t.Fatalf("stale native desynced: err=%v packets=%d failures=%d",
			err, len(res.Packets), res.Failures)
	}
	if !sameHeader(a2, res.Packets[0]) {
		t.Error("reconstruction differs after stale native")
	}
}

func TestNoContextFailure(t *testing.T) {
	f := newFlow(false)
	c, _ := pair(f)
	c.Compress(nil, f.ackPkt(2920)) // IR form; skip it
	dFresh := NewDecompressor()     // never observed the flow
	data, _ := compress1(c, f.ackPkt(2920))
	res, err := dFresh.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 0 || res.Failures != 1 {
		t.Errorf("packets=%d failures=%d, want 0/1", len(res.Packets), res.Failures)
	}
}

// TestIRBootstrapsFreshDecompressor covers the loss-resilience
// extension: the first compressed ACK after a native re-anchor is a
// self-contained IR refresh, so a decompressor that never saw any
// native (the re-anchor may be parked in a reorder buffer or lost)
// still reconstructs it and establishes the context for the deltas
// that follow.
func TestIRBootstrapsFreshDecompressor(t *testing.T) {
	f := newFlow(true)
	c, _ := pair(f)
	dFresh := NewDecompressor() // never observed the flow
	orig := f.ackPkt(2920)
	ir, _ := compress1(c, orig)
	res, err := dFresh.Decompress(ir)
	if err != nil || len(res.Packets) != 1 || res.Failures != 0 {
		t.Fatalf("IR bootstrap: err=%v packets=%d failures=%d", err, len(res.Packets), res.Failures)
	}
	if !sameHeader(orig, res.Packets[0]) {
		t.Error("IR reconstruction differs from original")
	}
	// The context the IR established carries the deltas that follow.
	next := f.ackPkt(2920)
	data, _ := compress1(c, next)
	res, err = dFresh.Decompress(data)
	if err != nil || len(res.Packets) != 1 || res.Failures != 0 {
		t.Fatalf("delta after IR: err=%v packets=%d failures=%d", err, len(res.Packets), res.Failures)
	}
	if !sameHeader(next, res.Packets[0]) {
		t.Error("delta reconstruction differs after IR bootstrap")
	}
}

// TestIRDedupAndNoRegression: a retained IR re-ridden after delivery
// dedups by MSN, and a stale IR can never rewind an advanced context.
func TestIRDedupAndNoRegression(t *testing.T) {
	f := newFlow(false)
	c, d := pair(f)
	ir, _ := compress1(c, f.ackPkt(2920))
	if res, _ := d.Decompress(ir); len(res.Packets) != 1 {
		t.Fatal("IR not delivered")
	}
	// Deltas advance the context past the IR.
	for i := 0; i < 3; i++ {
		data, _ := compress1(c, f.ackPkt(2920))
		if res, _ := d.Decompress(data); len(res.Packets) != 1 {
			t.Fatalf("delta %d not delivered", i)
		}
	}
	// The same IR bytes again (a §3.4 re-ride): duplicate, no failure,
	// and the context still decodes fresh deltas.
	res, err := d.Decompress(ir)
	if err != nil || res.Duplicates != 1 || res.Failures != 0 || len(res.Packets) != 0 {
		t.Fatalf("IR re-ride: err=%v dups=%d failures=%d packets=%d",
			err, res.Duplicates, res.Failures, len(res.Packets))
	}
	next := f.ackPkt(2920)
	data, _ := compress1(c, next)
	r2, _ := d.Decompress(data)
	if len(r2.Packets) != 1 || !sameHeader(next, r2.Packets[0]) {
		t.Fatal("context damaged by IR re-ride")
	}
}

func TestCompressRequiresContext(t *testing.T) {
	c := NewCompressor()
	f := newFlow(false)
	if _, _, ok := c.Compress(nil, f.ackPkt(2920)); ok {
		t.Error("compressed without a context")
	}
	// Non-ACK packets are refused.
	p := f.ackPkt(0)
	p.TCP.Flags |= packet.FlagSYN
	c.Observe(p) // must be ignored
	if _, _, ok := c.Compress(nil, p); ok {
		t.Error("compressed a SYN")
	}
}

func TestWindowChange(t *testing.T) {
	f := newFlow(false)
	c, d := pair(f)
	orig := f.ackPkt(2920)
	orig.TCP.Window = 123 // receiver window update
	data, ok := compress1(c, orig)
	if !ok {
		t.Fatal("no context")
	}
	res, err := d.Decompress(data)
	if err != nil || len(res.Packets) != 1 {
		t.Fatalf("err=%v packets=%d", err, len(res.Packets))
	}
	if res.Packets[0].TCP.Window != 123 {
		t.Errorf("window = %d, want 123", res.Packets[0].TCP.Window)
	}
	if !sameHeader(orig, res.Packets[0]) {
		t.Error("reconstruction differs")
	}
}

func TestSACKBlocks(t *testing.T) {
	f := newFlow(true)
	c, d := pair(f)
	orig := f.ackPkt(0) // dup ACK with SACK
	orig.TCP.Opt.SACKBlocks = [][2]uint32{
		{orig.TCP.Ack + 2920, orig.TCP.Ack + 5840},
		{orig.TCP.Ack + 8760, orig.TCP.Ack + 10220},
	}
	data, ok := compress1(c, orig)
	if !ok {
		t.Fatal("no context")
	}
	res, err := d.Decompress(data)
	if err != nil || len(res.Packets) != 1 {
		t.Fatalf("err=%v packets=%d failures=%d", err, len(res.Packets), res.Failures)
	}
	if !sameHeader(orig, res.Packets[0]) {
		t.Errorf("SACK reconstruction differs:\n got %+v\nwant %+v",
			res.Packets[0].TCP.Opt, orig.TCP.Opt)
	}
	// Four blocks exceed the format: refuse, forcing native transmission.
	big := f.ackPkt(0)
	big.TCP.Opt.SACKBlocks = make([][2]uint32, 4)
	if _, _, ok := c.Compress(nil, big); ok {
		t.Error("compressed 4 SACK blocks")
	}
}

func TestBatchMultiFlow(t *testing.T) {
	// Two flows interleaved in one frame: the first ACK of each flow
	// is anchored; later ones chain 4-bit MSNs per flow.
	fa := newFlow(true)
	fb := newFlow(true)
	fb.tuple.SrcPort = 50999
	c := NewCompressor()
	d := NewDecompressor()
	na, nb := fa.ackPkt(2920), fb.ackPkt(2920)
	c.Observe(na)
	c.Observe(nb)
	d.Observe(na)
	d.Observe(nb)
	if CID(fa.tuple) == CID(fb.tuple) {
		t.Skip("fixture CID collision")
	}
	fr := newFrame()
	var origs []*packet.Packet
	for i := 0; i < 10; i++ {
		for _, f := range []*flowGen{fa, fb} {
			orig := f.ackPkt(2920)
			if !fr.add(c, orig) {
				t.Fatal("no context")
			}
			origs = append(origs, orig)
		}
	}
	res, err := d.Decompress(fr.buf)
	if err != nil || res.Failures != 0 {
		t.Fatalf("err=%v failures=%d", err, res.Failures)
	}
	if len(res.Packets) != len(origs) {
		t.Fatalf("delivered %d of %d", len(res.Packets), len(origs))
	}
	for i := range origs {
		if !sameHeader(origs[i], res.Packets[i]) {
			t.Fatalf("ack %d differs", i)
		}
	}
}

func TestMissingAnchorIsFailureNotCorruption(t *testing.T) {
	// A frame whose first ACK of a flow is in compact form (assembler
	// bug) must count as a failure, never deliver wrong content.
	f := newFlow(false)
	c, d := pair(f)
	if ir, _ := compress1(c, f.ackPkt(2920)); len(ir) > 0 {
		d.Decompress(ir) // consume the IR so the next form is compact
	}
	orig := f.ackPkt(2920)
	data, _, ok := c.Compress(nil, orig) // compact, never anchored
	if !ok {
		t.Fatal("no context")
	}
	res, err := d.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packets) != 0 || res.Failures != 1 {
		t.Errorf("packets=%d failures=%d, want 0/1", len(res.Packets), res.Failures)
	}
}

func TestCIDProperties(t *testing.T) {
	f := newFlow(false)
	tp := f.tuple
	if CID(tp) != CID(tp) {
		t.Error("CID not deterministic")
	}
	other := tp
	other.SrcPort++
	if CID(tp) == CID(other) {
		t.Skip("fixture CID collision; adjust ports")
	}
}

func TestCIDCollisionFallsBackToNative(t *testing.T) {
	// Force a collision by observing two flows and checking that the
	// second (whichever loses the context) is refused by Compress.
	fa := newFlow(false)
	fb := newFlow(false)
	fb.tuple = fa.tuple // identical tuple hashes identically...
	fb.tuple.SrcPort = fa.tuple.SrcPort
	c := NewCompressor()
	na := fa.ackPkt(2920)
	c.Observe(na)
	// Simulate a colliding flow by directly asking to compress a
	// different tuple mapped to the same context slot: craft a packet
	// whose tuple differs but force-check the refusal path.
	pb := fb.ackPkt(2920)
	pb.TCP.SrcPort = 1 // different tuple; CID almost surely different
	if CID(fa.tuple) == CID(packet.FiveTuple{Src: pb.IP.Src, Dst: pb.IP.Dst, SrcPort: 1, DstPort: pb.TCP.DstPort, Proto: packet.ProtoTCP}) {
		t.Skip("unexpected CID equality")
	}
	// The real property: a valid context owned by flow A never absorbs
	// or serves another tuple.
	if _, _, ok := c.Compress(nil, pb); ok {
		t.Error("compressed against a foreign context")
	}
}

func TestMSNWraparound(t *testing.T) {
	f := newFlow(false)
	c, d := pair(f)
	// Push well past the 8-bit MSN space; every single-ACK frame is
	// anchored.
	for i := 0; i < 600; i++ {
		orig := f.ackPkt(2920)
		data, ok := compress1(c, orig)
		if !ok {
			t.Fatal("no context")
		}
		res, err := d.Decompress(data)
		if err != nil || len(res.Packets) != 1 {
			t.Fatalf("i=%d err=%v packets=%d dups=%d failures=%d",
				i, err, len(res.Packets), res.Duplicates, res.Failures)
		}
		if !sameHeader(orig, res.Packets[0]) {
			t.Fatalf("i=%d reconstruction differs", i)
		}
	}
}

func TestTruncatedFrames(t *testing.T) {
	f := newFlow(true)
	c, _ := pair(f)
	data, _ := compress1(c, f.ackPkt(2920))
	for n := 1; n < len(data); n++ {
		d2 := NewDecompressor()
		if res, err := d2.Decompress(data[:n]); err == nil && len(res.Packets) > 0 {
			t.Errorf("truncation to %d bytes delivered a packet", n)
		}
	}
	if _, err := NewDecompressor().Decompress([]byte{0x01}); err == nil {
		t.Error("1-byte frame accepted")
	}
}

// Property: compress∘decompress = identity over randomized flow
// evolutions with mixed advances, window changes, and timestamps.
func TestRoundtripProperty(t *testing.T) {
	check := func(advances []uint16, winBumps []bool, useTS bool) bool {
		f := newFlow(useTS)
		c, d := pair(f)
		for i, adv := range advances {
			orig := f.ackPkt(uint32(adv))
			if i < len(winBumps) && winBumps[i] {
				f.win += 64
				orig.TCP.Window = f.win
			}
			data, ok := compress1(c, orig)
			if !ok {
				return false
			}
			res, err := d.Decompress(data)
			if err != nil || len(res.Packets) != 1 || res.Failures != 0 {
				return false
			}
			if !sameHeader(orig, res.Packets[0]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestCRC8KnownBehaviour(t *testing.T) {
	data := []byte{0xde, 0xad, 0xbe, 0xef}
	c := crc8(data)
	if c != crc8(data) {
		t.Error("crc8 not deterministic")
	}
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 1
		if crc8(mut) == c {
			t.Errorf("bit flip at byte %d undetected", i)
		}
	}
	if crc8(nil) != 0xff {
		t.Errorf("crc8(nil) = %#x, want initial value 0xff", crc8(nil))
	}
}

// TestDamageSurface exercises the explicit context-damage API: an
// invalidated compressor context refuses the flow until a native
// re-anchor; an invalidated decompressor context drops deltas (counted,
// ResyncNeeded reports it) until an IR refresh heals it.
func TestDamageSurface(t *testing.T) {
	f := newFlow(false)
	c, d := pair(f)
	ir, _ := compress1(c, f.ackPkt(2920))
	if res, _ := d.Decompress(ir); len(res.Packets) != 1 {
		t.Fatal("setup: IR not delivered")
	}

	// Compressor side: declared damage forces the native path.
	c.Invalidate(f.tuple)
	if !c.ResyncNeeded() {
		t.Error("compressor ResyncNeeded false after Invalidate")
	}
	if _, _, ok := c.Compress(nil, f.ackPkt(2920)); ok {
		t.Fatal("invalidated context still compresses")
	}
	native := f.ackPkt(2920)
	c.Observe(native) // the native re-anchor heals it...
	d.Observe(native)
	if c.ResyncNeeded() {
		t.Error("compressor ResyncNeeded true after native re-anchor")
	}
	data, ok := compress1(c, f.ackPkt(2920)) // ...and the next ACK is an IR
	if !ok {
		t.Fatal("healed context refuses to compress")
	}
	if res, _ := d.Decompress(data); len(res.Packets) != 1 {
		t.Fatal("post-heal IR not delivered")
	}

	// Decompressor side: declared damage drops deltas until an IR.
	d.Invalidate(CID(f.tuple))
	if !d.ResyncNeeded() {
		t.Error("decompressor ResyncNeeded false after Invalidate")
	}
	delta, _ := compress1(c, f.ackPkt(2920))
	res, _ := d.Decompress(delta)
	if res.FailNoContext != 1 || len(res.Packets) != 0 {
		t.Fatalf("damaged context accepted a delta: failures=%d packets=%d",
			res.FailNoContext, len(res.Packets))
	}
	// The compressor cannot see the peer's damage; in the driver the
	// resulting native/IR traffic heals it. Here: force an IR.
	c.Refresh(f.tuple)
	heal := f.ackPkt(2920)
	irData, _ := compress1(c, heal)
	res, _ = d.Decompress(irData)
	if len(res.Packets) != 1 || !sameHeader(heal, res.Packets[0]) {
		t.Fatal("IR did not heal the damaged decompressor context")
	}
	if d.ResyncNeeded() {
		t.Error("decompressor ResyncNeeded true after IR heal")
	}
}

// Invalidate declares the flow's context damaged: Compress refuses
// the flow (forcing its ACKs onto the native path) until a native ACK
// is Observed, which re-anchors the context absolutely and re-enables
// compression through an IR refresh. It is the compressor-side mirror
// of the decompressor's CRC damage path — the recovery driver itself
// does not need it on resync (the IR refresh already makes reopening
// self-contained); it exists so codec-level tooling and tests can
// force the "regeneration unsafe until a fresh anchor" condition
// explicitly.
func (c *Compressor) Invalidate(t packet.FiveTuple) {
	if ctx := c.contexts.get(c.cids.cid(t)); ctx != nil && ctx.tuple == t {
		ctx.valid = false
	}
}

// ResyncNeeded reports whether any flow context is invalid — i.e. at
// least one flow must re-anchor through a native ACK before compressed
// regeneration is safe again.
func (c *Compressor) ResyncNeeded() bool { return c.contexts.resyncNeeded() }
