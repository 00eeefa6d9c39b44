// Package rohc implements the TCP ACK header compression TCP/HACK
// carries inside link-layer acknowledgments.
//
// The scheme follows RFC 6846 (ROHC-TCP) in structure — per-flow
// contexts holding the static five-tuple and dynamic header fields,
// delta encoding against the context, a master sequence number (MSN)
// for duplicate elimination, and a CRC over the original header to
// validate decompression — with the paper's §3.3.2 simplifications:
//
//   - No Initialize/Refresh packets: contexts are established by
//     observing TCP ACKs that travel natively (uncompressed), which
//     both ends see.
//   - Context IDs are computed independently at each end as the lowest
//     byte of the MD5 hash over the flow five-tuple.
//   - The first compressed ACK in a frame carries its full 8-bit MSN
//     (an A-MPDU can carry 64 packets, so 4 LSBs are not enough);
//     subsequent ACKs carry 4 bits.
//
// A compressed ACK occupies 3 bytes when the flow's cumulative-ACK
// stride and timestamp advance match the learned pattern (the paper's
// "3 bytes if the associated flow transmits a constant payload size"),
// and ~4–6 bytes otherwise.
package rohc

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"

	"tcphack/internal/packet"
)

// CID computes the context identifier for a flow: the lowest byte of
// the MD5 hash over the five-tuple (paper §3.3.2). Both ends compute
// it independently; no negotiation messages are exchanged.
//
// The hash is a per-flow constant, so per-packet paths never call this
// directly: Compressor and Decompressor memoize it per five-tuple (see
// cidCache), computing the MD5 once per flow instead of per packet.
func CID(t packet.FiveTuple) byte {
	var b [13]byte
	copy(b[0:4], t.Src[:])
	copy(b[4:8], t.Dst[:])
	binary.BigEndian.PutUint16(b[8:], t.SrcPort)
	binary.BigEndian.PutUint16(b[10:], t.DstPort)
	b[12] = t.Proto
	sum := md5.Sum(b[:])
	return sum[len(sum)-1]
}

// cidCache memoizes CID per five-tuple. A flow's CID never changes, so
// one MD5 per flow suffices. The latest flow looked up sits in front of
// the map: a codec meets a flow's ACKs in runs (one link-layer ACK
// carries a batch of them), so most lookups compare one tuple and hash
// nothing. The zero value is ready to use; lookups are allocation-free
// once a flow is known.
type cidCache struct {
	m      map[packet.FiveTuple]byte
	last   packet.FiveTuple
	lastID byte
	primed bool // last holds a looked-up flow
}

func (c *cidCache) cid(t packet.FiveTuple) byte {
	if c.primed && c.last == t {
		return c.lastID
	}
	id, ok := c.m[t]
	if !ok {
		if c.m == nil {
			c.m = make(map[packet.FiveTuple]byte)
		}
		id = CID(t)
		c.m[t] = id
	}
	c.last, c.lastID, c.primed = t, id, true
	return id
}

// contextTable holds a codec's flow contexts by CID. A context is made
// once per CID and never replaced, so the latest one looked up sits in
// front of the map without going stale, for the same runs cidCache
// exploits. The zero value is ready to use.
type contextTable struct {
	m       map[byte]*context
	last    *context
	lastCID byte
}

// get returns cid's context, or nil if it has none.
func (t *contextTable) get(cid byte) *context {
	if t.last != nil && t.lastCID == cid {
		return t.last
	}
	ctx := t.m[cid]
	if ctx != nil {
		t.last, t.lastCID = ctx, cid
	}
	return ctx
}

// getOrAdd returns cid's context, creating an empty one if it has none.
func (t *contextTable) getOrAdd(cid byte) *context {
	if ctx := t.get(cid); ctx != nil {
		return ctx
	}
	if t.m == nil {
		t.m = make(map[byte]*context)
	}
	ctx := &context{}
	t.m[cid] = ctx
	t.last, t.lastCID = ctx, cid
	return ctx
}

// resyncNeeded reports whether any context is untrusted.
func (t *contextTable) resyncNeeded() bool {
	for _, ctx := range t.m {
		if !ctx.valid {
			return true
		}
	}
	return false
}

// crc8Table is the 256-entry lookup table for the ROHC CRC-8
// polynomial, generated at init from the bitwise definition (which the
// tests keep as crc8Bitwise, the golden reference).
var crc8Table = func() (tbl [256]byte) {
	for i := range tbl {
		crc := byte(i)
		for bit := 0; bit < 8; bit++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		tbl[i] = crc
	}
	return tbl
}()

// crc8 implements the ROHC CRC-8 (RFC 5795 §5.3.1.1: polynomial
// x^8 + x^2 + x + 1), computed over the original uncompressed header
// bytes so the decompressor can validate its reconstruction.
// Table-driven; bit-identical to the tests' crc8Bitwise.
func crc8(data []byte) byte {
	crc := byte(0xff)
	for _, b := range data {
		crc = crc8Table[crc^b]
	}
	return crc
}

// headerCRC computes the validation CRC over a pure ACK's wire image,
// marshalling into the caller's scratch buffer (retained across calls)
// so the steady-state path performs no allocation.
func headerCRC(p *packet.Packet, scratch *[]byte) byte {
	*scratch = p.MarshalAppend((*scratch)[:0])
	return crc8(*scratch)
}

// Compressed-format flag bits (high nibble of the second byte).
const (
	flagExtMSN      = 0x8 // full 8-bit MSN byte follows
	flagAckExplicit = 0x4 // varint ACK delta follows (else ACK advances by the learned stride)
	flagWinChanged  = 0x2 // 2-byte window follows
	flagOptExt      = 0x1 // options byte follows
)

// Options-byte bits.
const (
	optTS         = 0x80 // timestamps present on this ACK
	optTSExplicit = 0x40 // varint TS deltas follow (else learned strides apply)
	optIPID       = 0x20 // varint IP-ID delta follows (else learned stride applies)
	optSeqChanged = 0x10 // signed varint SEQ delta follows
	optSACKShift  = 2    // bits 3:2 hold the SACK block count (0–3)
	optSACKMask   = 0x0c
	// optIR marks an IR refresh (RFC 6846's Initialize/Refresh, the
	// loss-resilience extension to the paper's §3.3.2 "no IR packets"
	// simplification): every carried field is an absolute value, and
	// the 15-byte static chain (five-tuple, TTL, TOS) follows the
	// options byte. An IR re-establishes the decompressor context from
	// nothing — the first compressed ACK of a flow after any native
	// re-anchor travels in this form, so chain reopening never depends
	// on the order in which natives and link-layer ACKs arrive.
	optIR = 0x02
)

// irStaticLen is the IR static chain: 4+4 addresses, 2+2 ports,
// protocol, TTL, TOS.
const irStaticLen = 15

// context holds the shared compressor/decompressor state for one flow.
// The two ends evolve their contexts identically because they process
// the same sequence of ACKs (natively observed or compressed-delivered,
// duplicates excluded).
type context struct {
	tuple packet.FiveTuple
	ttl   byte
	tos   byte
	ipID  uint16

	seq, ack     uint32
	window       uint16
	tsVal, tsEcr uint32
	hasTS        bool

	ackStride   uint32 // learned cumulative-ACK advance
	lastAckD    uint32
	tsValStride uint32
	lastTSValD  uint32
	tsEcrStride uint32
	lastTSEcrD  uint32
	ipIDStride  uint16 // learned per-packet IP-ID advance (RFC 6846 §6.1.1)
	lastIPIDD   uint16

	msn     uint8 // compressor: last assigned; decompressor: last delivered
	started bool  // decompressor: any compressed ACK delivered yet
	valid   bool  // decompressor: context trusted (cleared on CRC failure)
	// refreshed (compressor): a native re-anchor was absorbed since the
	// last compressed ACK, so the decompressor's context state is
	// unknowable (the native may still be in flight, parked in the
	// peer's reorder buffer, or lost). The next Compress for the flow
	// emits an IR refresh, which re-establishes the context absolutely.
	refreshed bool
}

// learn updates the stride predictors after an ACK with the given
// deltas has been processed. A stride is trusted after two consecutive
// equal non-zero deltas — both ends apply the same rule to the same
// delta sequence, keeping predictors in lockstep.
func (c *context) learn(ackD, tsValD, tsEcrD uint32, ipIDD uint16) {
	if ackD != 0 && ackD == c.lastAckD {
		c.ackStride = ackD
	}
	c.lastAckD = ackD
	if tsValD == c.lastTSValD {
		c.tsValStride = tsValD
	}
	c.lastTSValD = tsValD
	if tsEcrD == c.lastTSEcrD {
		c.tsEcrStride = tsEcrD
	}
	c.lastTSEcrD = tsEcrD
	if ipIDD == c.lastIPIDD {
		c.ipIDStride = ipIDD
	}
	c.lastIPIDD = ipIDD
}

// absorb installs the absolute state of a natively-travelling ACK —
// the IR-equivalent context refresh. Stride predictors reset: they are
// learned from per-packet histories, and the compressor's (every
// compressed ACK) and decompressor's (every delivered ACK) histories
// can differ across a loss. Resetting on every re-anchor puts both
// ends in the same known state; the compressor encodes explicitly
// until the predictors re-lock from the shared chain.
func (c *context) absorb(p *packet.Packet) {
	t := p.TCP
	c.tuple = tupleOf(p)
	c.ttl, c.tos, c.ipID = p.IP.TTL, p.IP.TOS, p.IP.ID
	c.seq, c.ack = t.Seq, t.Ack
	c.window = t.Window
	c.hasTS = t.Opt.HasTimestamps
	c.tsVal, c.tsEcr = t.Opt.TSVal, t.Opt.TSEcr
	c.valid = true
	c.refreshed = true
	c.ackStride, c.lastAckD = 0, 0
	c.tsValStride, c.lastTSValD = 0, 0
	c.tsEcrStride, c.lastTSEcrD = 0, 0
	c.ipIDStride, c.lastIPIDD = 0, 0
}

func tupleOf(p *packet.Packet) packet.FiveTuple {
	t, _ := p.Tuple()
	return t
}

// Compressor turns pure TCP ACKs into compressed representations.
type Compressor struct {
	contexts contextTable
	cids     cidCache
	scratch  []byte // headerCRC marshal buffer
}

// NewCompressor returns an empty compressor.
func NewCompressor() *Compressor { return &Compressor{} }

// CID returns the context identifier for a flow, memoized per
// five-tuple (the MD5 in the package-level CID runs once per flow).
func (c *Compressor) CID(t packet.FiveTuple) byte { return c.cids.cid(t) }

// Refresh forces the flow's next compressed ACK into the absolute IR
// form without distrusting the context. The HACK driver's
// opportunistic mode uses it for every registered copy: the mode
// retains nothing across lost link-layer ACKs, so only a
// self-contained encoding survives arbitrary gaps in what the
// decompressor has seen.
func (c *Compressor) Refresh(t packet.FiveTuple) {
	if ctx := c.contexts.get(c.cids.cid(t)); ctx != nil && ctx.valid && ctx.tuple == t {
		ctx.refreshed = true
	}
}

// shouldAbsorb decides whether a natively-travelling ACK re-anchors a
// context. Both ends apply the same rule, and every absorb forces the
// compressor's next encoding for the flow into the absolute IR form
// (context.refreshed), so a skipped absorb at one end can never fork
// the chain:
//
//   - a missing or damaged context absorbs (bootstrap / §3.4 healing);
//   - a valid context owned by a different flow (CID collision) never
//     absorbs — the colliding flow permanently falls back to native
//     ACKs;
//   - a strictly newer cumulative ACK absorbs;
//   - an equal cumulative ACK absorbs only when its IP-ID is strictly
//     newer — a genuinely newer duplicate ACK in a dup-ACK train.
//     Equal-or-older state (the packet just compressed in
//     opportunistic mode, or a stale native released late from the
//     peer's reorder buffer) must NOT re-anchor: regressing the
//     dynamic fields (IP-ID, timestamps) onto an old duplicate would
//     poison every later delta against the live chain.
func (c *context) shouldAbsorb(p *packet.Packet) bool {
	if !c.valid {
		return true
	}
	if c.tuple != tupleOf(p) {
		return false
	}
	if d := int32(p.TCP.Ack - c.ack); d != 0 {
		return d > 0
	}
	return int16(p.IP.ID-c.ipID) > 0
}

// Observe records a TCP ACK that is travelling natively so the
// compression context can re-anchor on it. Call it for every pure ACK
// sent outside of HACK.
//
// Whether or not the native absorbs (a replayed chain tip carries
// state the context already holds), the flow is flagged for an IR
// refresh: the peer's decompressor may absorb this native from an
// older position, so the next compressed ACK must be self-contained
// rather than a delta the peer might misapply.
func (c *Compressor) Observe(p *packet.Packet) {
	if !p.IsTCPAck() {
		return
	}
	ctx := c.contexts.getOrAdd(c.cids.cid(tupleOf(p)))
	if !ctx.shouldAbsorb(p) {
		if ctx.valid && ctx.tuple == tupleOf(p) {
			ctx.refreshed = true
		}
		return
	}
	ctx.absorb(p)
	// The MSN counter deliberately survives the absorb: it must stay
	// monotone for the decompressor's dedup window even when the two
	// ends absorb a given native at different chain positions (the
	// decompressor resets its `started` latch instead, accepting
	// whatever MSN the next compressed ACK carries).
}

// AppendAnchor appends the compressed ACK data to dst with its master
// sequence number widened to the 8-bit form (paper §3.4: the first
// compressed ACK in a link-layer ACK carries its full MSN, since an
// A-MPDU can elicit 64 of them). The HACK driver applies it at
// frame-assembly time to the first ACK of each flow in the payload —
// mirroring the paper's NIC, which widens the leading descriptor's MSN
// when it concatenates the frame. Already-anchored or malformed data
// is appended verbatim.
func AppendAnchor(dst, data []byte, msn uint8) []byte {
	if len(data) < 2 || data[1]>>4&flagExtMSN != 0 {
		return append(dst, data...)
	}
	dst = append(dst, data[0], data[1]|flagExtMSN<<4, msn)
	return append(dst, data[2:]...)
}

// IsIR reports whether a single compressed record is an IR refresh —
// the self-contained form carrying the static chain. Observability
// helper (the decompressor makes its own determination inline); a
// malformed record reports false.
func IsIR(data []byte) bool {
	if len(data) < 2 {
		return false
	}
	flags := data[1] >> 4
	if flags&flagOptExt == 0 {
		return false
	}
	i := 2
	if flags&flagExtMSN != 0 {
		i++
	}
	if i > len(data) {
		return false
	}
	if flags&flagAckExplicit != 0 {
		_, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return false
		}
		i += n
	}
	if flags&flagWinChanged != 0 {
		i += 2
	}
	if i >= len(data) {
		return false
	}
	return data[i]&optIR != 0
}

// MaxCompressedLen bounds what one Compress call appends: an IR
// refresh with timestamps and three SACK blocks, every varint at its
// widest (3 + 5 ack + 2 window + 1 options + 15 static chain + 10
// timestamps + 3 IP-ID + 5 seq + 30 SACK + 1 CRC). A delta record,
// even once AppendAnchor widens it, is shorter. Callers that hold
// compressed ACKs in fixed storage size it with this.
const MaxCompressedLen = 75

// Compress encodes a pure TCP ACK against its flow context, in the
// compact 4-bit-MSN form, appending the record to dst and returning
// the extended slice; it appends at most MaxCompressedLen bytes, so a
// dst with that much spare capacity is never reallocated. msn is the
// ACK's full master sequence number, which the frame assembler passes
// to AppendAnchor for the first ACK of each flow in a frame. It
// returns dst unchanged and ok=false when the ACK cannot travel
// compressed (no context yet, option shape change, >3 SACK blocks);
// such ACKs must travel natively, which establishes the context at
// both ends.
func (c *Compressor) Compress(dst []byte, p *packet.Packet) (data []byte, msn uint8, ok bool) {
	if !p.IsTCPAck() {
		return dst, 0, false
	}
	tuple := tupleOf(p)
	cid := c.cids.cid(tuple)
	ctx := c.contexts.get(cid)
	if ctx == nil || !ctx.valid || ctx.tuple != tuple {
		return dst, 0, false
	}
	t := p.TCP
	if t.Opt.HasTimestamps != ctx.hasTS && !ctx.refreshed {
		return dst, 0, false // option shape changed; refresh natively
	}

	nSACK := len(t.Opt.SACKBlocks)
	if nSACK > 3 {
		return dst, 0, false // beyond the encodable range; send natively
	}

	if ctx.refreshed {
		// First compressed ACK after a native re-anchor: the
		// decompressor's context state is unknowable (the anchor may be
		// parked in the peer's reorder buffer), so emit a
		// self-contained IR refresh rather than a delta.
		return c.compressIR(dst, p, ctx, cid)
	}

	ctx.msn++
	msn = ctx.msn

	ackD := t.Ack - ctx.ack
	seqD := int64(int32(t.Seq - ctx.seq))
	tsValD := t.Opt.TSVal - ctx.tsVal
	tsEcrD := t.Opt.TSEcr - ctx.tsEcr
	ipIDD := p.IP.ID - ctx.ipID

	var flags byte
	ackImplicit := ctx.ackStride != 0 && ackD == ctx.ackStride
	if !ackImplicit {
		flags |= flagAckExplicit
	}
	if t.Window != ctx.window {
		flags |= flagWinChanged
	}

	var opt byte
	if ctx.hasTS {
		opt |= optTS
		if tsValD != ctx.tsValStride || tsEcrD != ctx.tsEcrStride {
			opt |= optTSExplicit
		}
	}
	if ipIDD != ctx.ipIDStride {
		opt |= optIPID
	}
	if seqD != 0 {
		opt |= optSeqChanged
	}
	opt |= byte(nSACK) << optSACKShift
	if opt != 0 {
		flags |= flagOptExt
	}

	buf := append(dst, cid, flags<<4|msn&0x0f)
	if !ackImplicit {
		buf = binary.AppendUvarint(buf, uint64(ackD))
	}
	if flags&flagWinChanged != 0 {
		buf = append(buf, byte(t.Window>>8), byte(t.Window))
	}
	if flags&flagOptExt != 0 {
		buf = append(buf, opt)
		if opt&optTS != 0 && opt&optTSExplicit != 0 {
			buf = binary.AppendUvarint(buf, uint64(tsValD))
			buf = binary.AppendUvarint(buf, uint64(tsEcrD))
		}
		if opt&optIPID != 0 {
			buf = binary.AppendUvarint(buf, uint64(ipIDD))
		}
		if opt&optSeqChanged != 0 {
			buf = binary.AppendVarint(buf, seqD)
		}
		buf = appendSACK(buf, t)
	}
	buf = append(buf, headerCRC(p, &c.scratch))

	// Commit the context only after a successful encode.
	ctx.seq, ctx.ack = t.Seq, t.Ack
	ctx.window = t.Window
	ctx.tsVal, ctx.tsEcr = t.Opt.TSVal, t.Opt.TSEcr
	ctx.ipID = p.IP.ID
	ctx.learn(ackD, tsValD, tsEcrD, ipIDD)
	return buf, msn, true
}

// appendSACK appends t's SACK blocks, each as its offset from the
// cumulative ACK and its length.
func appendSACK(buf []byte, t *packet.TCP) []byte {
	for _, blk := range t.Opt.SACKBlocks {
		buf = binary.AppendUvarint(buf, uint64(blk[0]-t.Ack))
		buf = binary.AppendUvarint(buf, uint64(blk[1]-blk[0]))
	}
	return buf
}

// compressIR appends p to dst as an IR refresh: every field absolute,
// static chain included, so the decompressor can (re)establish the
// flow context from the frame alone. The compressor commits the same
// absolute state (stride predictors reset) that the IR installs at the
// decompressor, re-synchronizing both ends by construction.
func (c *Compressor) compressIR(dst []byte, p *packet.Packet, ctx *context, cid byte) (data []byte, msn uint8, ok bool) {
	t := p.TCP
	nSACK := len(t.Opt.SACKBlocks)
	ctx.msn++
	msn = ctx.msn

	flags := byte(flagExtMSN | flagAckExplicit | flagWinChanged | flagOptExt)
	opt := byte(optIR) | byte(nSACK)<<optSACKShift | optIPID | optSeqChanged
	if t.Opt.HasTimestamps {
		opt |= optTS | optTSExplicit
	}

	buf := append(dst, cid, flags<<4|msn&0x0f, msn)
	buf = binary.AppendUvarint(buf, uint64(t.Ack))
	buf = append(buf, byte(t.Window>>8), byte(t.Window))
	buf = append(buf, opt)
	tuple := tupleOf(p)
	buf = append(buf, tuple.Src[:]...)
	buf = append(buf, tuple.Dst[:]...)
	buf = append(buf, byte(tuple.SrcPort>>8), byte(tuple.SrcPort),
		byte(tuple.DstPort>>8), byte(tuple.DstPort), tuple.Proto,
		p.IP.TTL, p.IP.TOS)
	if opt&optTS != 0 {
		buf = binary.AppendUvarint(buf, uint64(t.Opt.TSVal))
		buf = binary.AppendUvarint(buf, uint64(t.Opt.TSEcr))
	}
	buf = binary.AppendUvarint(buf, uint64(p.IP.ID))
	buf = binary.AppendVarint(buf, int64(t.Seq))
	buf = appendSACK(buf, t)
	buf = append(buf, headerCRC(p, &c.scratch))

	ctx.absorb(p)
	ctx.refreshed = false
	return buf, msn, true
}

// reconstruct builds a pure-ACK packet from absolute header fields —
// the single reconstruction path both the delta decoder and the IR
// installer feed into headerCRC, so the two can never diverge on
// which fields a reconstruction carries. The packet comes from pool
// and holds its TCP header and SACK blocks inline.
func reconstruct(pool *packet.Pool, tuple packet.FiveTuple, tos, ttl byte, ipID uint16,
	seq, ack uint32, window uint16, hasTS bool, tsVal, tsEcr uint32,
	sacks [][2]uint32) *packet.Packet {
	p := pool.Get(packet.ProtoTCP)
	p.IP.TOS, p.IP.TTL, p.IP.ID = tos, ttl, ipID
	p.IP.Src, p.IP.Dst = tuple.Src, tuple.Dst
	t := p.TCP
	t.SrcPort, t.DstPort = tuple.SrcPort, tuple.DstPort
	t.Seq, t.Ack, t.Window = seq, ack, window
	t.Flags = packet.FlagACK
	if hasTS {
		t.Opt.HasTimestamps = true
		t.Opt.TSVal, t.Opt.TSEcr = tsVal, tsEcr
	}
	for _, s := range sacks {
		left := ack + s[0]
		t.Opt.SACKBlocks = append(t.Opt.SACKBlocks, [2]uint32{left, left + s[1]})
	}
	return p
}

// Result reports the outcome of decompressing one HACK frame.
type Result struct {
	// Packets are the reconstituted TCP ACKs, in frame order,
	// duplicates excluded. Each carries one reference that passes to
	// the caller, also when Decompress returns an error. The slice
	// itself belongs to the Decompressor, which reuses its array: it is
	// valid until the next Decompress call, so a caller that needs the
	// list longer copies it (the packets stay the caller's).
	Packets []*packet.Packet
	// Duplicates counts ACKs discarded by MSN-based dedup (normal
	// under link-layer retransmission, paper Figure 6).
	Duplicates int
	// Failures counts ACKs dropped because of CRC mismatch or missing
	// context — a context damage event.
	Failures int
	// Failure breakdown (diagnostics).
	FailNoAnchor  int // first-of-flow ACK lacked the 8-bit MSN
	FailNoContext int // no valid context for the CID
	FailCRC       int // reconstruction rejected by the header CRC
}

// Decompressor reconstitutes TCP ACKs from compressed HACK frames.
type Decompressor struct {
	// Pool supplies the reconstructed packets. Nil allocates each one
	// (see packet.Pool).
	Pool *packet.Pool

	contexts contextTable
	cids     cidCache
	scratch  []byte           // headerCRC marshal buffer
	packets  []*packet.Packet // Result.Packets' array, reused per frame

	// Per-frame MSN chain (the prevMSN map of Decompress, flattened):
	// prevMSN[cid] is valid for the current frame iff prevEpoch[cid]
	// equals epoch, which bumping epoch invalidates in O(1) per frame.
	prevMSN   [256]uint8
	prevEpoch [256]uint64
	epoch     uint64
}

// NewDecompressor returns an empty decompressor.
func NewDecompressor() *Decompressor { return &Decompressor{} }

// Observe records a natively-received TCP ACK, establishing the flow
// context, re-anchoring it on newer state, or restoring it after CRC
// damage. The absorb rule mirrors the compressor's exactly.
func (d *Decompressor) Observe(p *packet.Packet) {
	if !p.IsTCPAck() {
		return
	}
	ctx := d.contexts.getOrAdd(d.cids.cid(tupleOf(p)))
	if !ctx.shouldAbsorb(p) {
		return
	}
	ctx.absorb(p)
	ctx.msn = 0
	ctx.started = false
}

// Invalidate marks the context for cid as damaged — the decompressor
// itself calls it on a reconstruction CRC mismatch: compressed delta
// ACKs for the flow are dropped (counted as context failures) until a
// native ACK or an IR refresh restores the context. It is exported so
// drivers and tests can declare damage explicitly and probe it via
// ResyncNeeded instead of inferring it from failure counters.
func (d *Decompressor) Invalidate(cid byte) {
	if ctx := d.contexts.get(cid); ctx != nil {
		ctx.valid = false
	}
}

// ResyncNeeded reports whether any flow context is damaged and awaiting
// a native re-anchor — the §3.4 condition under which compressed ACKs
// cannot be regenerated and are being dropped.
//
// Test accessor: hack.
func (d *Decompressor) ResyncNeeded() bool { return d.contexts.resyncNeeded() }

var (
	errTruncated = errors.New("rohc: truncated compressed frame")
	errVarint    = errors.New("rohc: bad varint")
)

// Decompress parses a HACK frame (a concatenation of compressed ACKs)
// and returns the reconstituted, deduplicated packets. A parse error
// aborts the remainder of the frame (framing is self-delimiting only
// while the stream is intact); per-ACK CRC or context failures skip
// the affected ACK and poison its context until a native refresh.
//
// Result.Packets reuses one array per Decompressor and is valid until
// the next call.
func (d *Decompressor) Decompress(frame []byte) (Result, error) {
	res := Result{Packets: d.packets[:0]}
	d.epoch++ // invalidate the previous frame's per-CID MSN chain
	var err error
	for i := 0; i < len(frame); {
		n, e := d.one(frame[i:], &res)
		if e != nil {
			err = fmt.Errorf("at offset %d: %w", i, e)
			break
		}
		i += n
	}
	d.packets = res.Packets
	return res, err
}

// one parses a single compressed ACK, returning its encoded length.
func (d *Decompressor) one(b []byte, res *Result) (int, error) {
	if len(b) < 3 {
		return 0, errTruncated
	}
	cid := b[0]
	flags := b[1] >> 4
	msnLow := b[1] & 0x0f
	i := 2

	ctx := d.contexts.get(cid)

	var msn uint8
	haveMSN := true
	if flags&flagExtMSN != 0 {
		if i >= len(b) {
			return 0, errTruncated
		}
		msn = b[i]
		i++
	} else if prev, ok := d.prevMSN[cid], d.prevEpoch[cid] == d.epoch; ok {
		// Reconstruct the full MSN from 4 LSBs against the previous ACK
		// of the same flow in this frame: batch ACKs are consecutive,
		// so snap to the candidate nearest prev+1.
		expected := prev + 1
		msn = expected&0xf0 | msnLow
		if d := int8(msn - expected); d > 8 {
			msn -= 16
		} else if d < -8 {
			msn += 16
		}
	} else {
		// No anchor: the encoder contract (BatchEncoder) was violated
		// or the anchor was unparseable. The ACK cannot be trusted.
		haveMSN = false
	}

	var ackD uint64
	ackExplicit := flags&flagAckExplicit != 0
	if ackExplicit {
		v, n := binary.Uvarint(b[i:])
		if n <= 0 {
			return 0, errVarint
		}
		ackD, i = v, i+n
	}
	var window uint16
	if flags&flagWinChanged != 0 {
		if i+2 > len(b) {
			return 0, errTruncated
		}
		window = uint16(b[i])<<8 | uint16(b[i+1])
		i += 2
	}
	var opt byte
	var tsValD, tsEcrD uint64
	tsExplicit := false
	var ipIDD uint64
	ipIDExplicit := false
	var seqD int64
	var sackBuf [optSACKMask >> optSACKShift][2]uint32
	sacks := sackBuf[:0] // relative (offset, length) pairs
	var ir bool
	var irTuple packet.FiveTuple
	var irTTL, irTOS byte
	if flags&flagOptExt != 0 {
		if i >= len(b) {
			return 0, errTruncated
		}
		opt = b[i]
		i++
		if opt&optIR != 0 {
			ir = true
			if i+irStaticLen > len(b) {
				return 0, errTruncated
			}
			copy(irTuple.Src[:], b[i:i+4])
			copy(irTuple.Dst[:], b[i+4:i+8])
			irTuple.SrcPort = uint16(b[i+8])<<8 | uint16(b[i+9])
			irTuple.DstPort = uint16(b[i+10])<<8 | uint16(b[i+11])
			irTuple.Proto = b[i+12]
			irTTL, irTOS = b[i+13], b[i+14]
			i += irStaticLen
		}
		if opt&optTS != 0 && opt&optTSExplicit != 0 {
			tsExplicit = true
			v, n := binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, errVarint
			}
			tsValD, i = v, i+n
			v, n = binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, errVarint
			}
			tsEcrD, i = v, i+n
		}
		if opt&optIPID != 0 {
			ipIDExplicit = true
			v, n := binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, errVarint
			}
			ipIDD, i = v, i+n
		}
		if opt&optSeqChanged != 0 {
			v, n := binary.Varint(b[i:])
			if n <= 0 {
				return 0, errVarint
			}
			seqD, i = v, i+n
		}
		for k := 0; k < int(opt&optSACKMask>>optSACKShift); k++ {
			rel, n := binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, errVarint
			}
			i += n
			length, n := binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, errVarint
			}
			i += n
			sacks = append(sacks, [2]uint32{uint32(rel), uint32(length)})
		}
	}
	if i >= len(b) {
		return 0, errTruncated
	}
	wantCRC := b[i]
	i++

	if !haveMSN {
		res.Failures++
		res.FailNoAnchor++
		return i, nil
	}
	d.prevMSN[cid] = msn
	d.prevEpoch[cid] = d.epoch

	if ir {
		return i, d.installIR(irFields{
			cid: cid, msn: msn, tuple: irTuple, ttl: irTTL, tos: irTOS,
			ack: uint32(ackD), window: window, hasTS: opt&optTS != 0,
			tsVal: uint32(tsValD), tsEcr: uint32(tsEcrD),
			ipID: uint16(ipIDD), seq: uint32(seqD), sacks: sacks,
			wantCRC: wantCRC,
		}, ctx, res)
	}

	if ctx == nil || !ctx.valid {
		res.Failures++
		res.FailNoContext++
		return i, nil
	}

	// MSN dedup: deliver only ACKs newer than the last delivered one.
	if ctx.started {
		if delta := msn - ctx.msn; delta == 0 || delta >= 128 {
			res.Duplicates++
			return i, nil
		}
	}

	// Reconstruct the full packet from context + deltas.
	if !ackExplicit {
		ackD = uint64(ctx.ackStride)
	}
	if opt&optTS != 0 && !tsExplicit {
		tsValD, tsEcrD = uint64(ctx.tsValStride), uint64(ctx.tsEcrStride)
	}
	if !ipIDExplicit {
		ipIDD = uint64(ctx.ipIDStride)
	}
	if flags&flagWinChanged == 0 {
		window = ctx.window
	}
	p := reconstruct(d.Pool, ctx.tuple, ctx.tos, ctx.ttl, ctx.ipID+uint16(ipIDD),
		ctx.seq+uint32(seqD), ctx.ack+uint32(ackD), window,
		opt&optTS != 0, ctx.tsVal+uint32(tsValD), ctx.tsEcr+uint32(tsEcrD), sacks)

	if headerCRC(p, &d.scratch) != wantCRC {
		// Context damage: reject and distrust until a native or IR
		// refresh (paper §3.4 — damage must not persist; the flow's
		// next anchor restores synchronization).
		d.Invalidate(cid)
		res.Failures++
		res.FailCRC++
		p.Release()
		return i, nil
	}

	ctx.seq, ctx.ack = p.TCP.Seq, p.TCP.Ack
	ctx.window = p.TCP.Window
	ctx.tsVal, ctx.tsEcr = p.TCP.Opt.TSVal, p.TCP.Opt.TSEcr
	ctx.ipID = p.IP.ID
	ctx.learn(uint32(ackD), uint32(tsValD), uint32(tsEcrD), uint16(ipIDD))
	ctx.msn = msn
	ctx.started = true
	res.Packets = append(res.Packets, p)
	return i, nil
}

// irFields carries one parsed IR refresh.
type irFields struct {
	cid          byte
	msn          uint8
	tuple        packet.FiveTuple
	ttl, tos     byte
	ack          uint32
	window       uint16
	hasTS        bool
	tsVal, tsEcr uint32
	ipID         uint16
	seq          uint32
	sacks        [][2]uint32
	wantCRC      byte
}

// installIR applies an IR refresh: reconstruct the ACK from the
// carried absolute values, validate it, and (re)establish the flow
// context — healing a damaged context and bootstrapping a missing one,
// with no dependence on any natively-travelling packet.
func (d *Decompressor) installIR(f irFields, ctx *context, res *Result) error {
	if d.cids.cid(f.tuple) != f.cid {
		// The static chain does not hash to the carried CID: the frame
		// is not self-consistent. Drop the ACK.
		res.Failures++
		res.FailNoContext++
		return nil
	}
	if ctx == nil {
		ctx = d.contexts.getOrAdd(f.cid)
	}
	if ctx.valid && ctx.tuple != f.tuple {
		// CID collision against a live flow: like the native absorb
		// rule, never displace it (the colliding flow stays native).
		res.Failures++
		res.FailNoContext++
		return nil
	}
	if ctx.valid && ctx.started {
		// MSN dedup, same window as the delta path; additionally never
		// regress the cumulative ACK (a stale IR re-ride must not
		// rewind a context that has moved on).
		if delta := f.msn - ctx.msn; delta == 0 || delta >= 128 {
			res.Duplicates++
			return nil
		}
		if int32(f.ack-ctx.ack) < 0 {
			res.Duplicates++
			return nil
		}
	}

	p := reconstruct(d.Pool, f.tuple, f.tos, f.ttl, f.ipID, f.seq, f.ack, f.window,
		f.hasTS, f.tsVal, f.tsEcr, f.sacks)
	if headerCRC(p, &d.scratch) != f.wantCRC {
		// An IR is self-contained, so a CRC mismatch means the frame
		// itself is damaged; the context keeps whatever trust it had.
		res.Failures++
		res.FailCRC++
		p.Release()
		return nil
	}

	ctx.absorb(p)
	ctx.msn = f.msn
	ctx.started = true
	res.Packets = append(res.Packets, p)
	return nil
}
