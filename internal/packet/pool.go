package packet

// Pool is a freelist of packets for one simulated network. Every
// packet the simulator builds — TCP segments and ACKs, ROHC
// reconstructions, UDP datagrams — comes from the network's pool and
// returns to it when its last holder releases it, so a warm network
// builds packets without allocating.
//
// A Pool is not safe for concurrent use: a network is driven by one
// goroutine, and concurrently running networks each own a pool. A nil
// *Pool is valid and allocates a fresh packet per Get that Release
// never recycles.
type Pool struct {
	free        []*Packet
	outstanding int
}

// Get returns a packet for protocol proto (ProtoTCP or ProtoUDP) with
// every header field zero, IP.Protocol set, TCP or UDP pointing at the
// packet's own header storage, and an empty SACK list backed by inline
// storage for four blocks. The caller holds the only reference.
func (pl *Pool) Get(proto byte) *Packet {
	var p *Packet
	if pl != nil {
		if n := len(pl.free); n > 0 {
			p = pl.free[n-1]
			pl.free = pl.free[:n-1]
		}
		pl.outstanding++
	}
	if p == nil {
		p = &Packet{}
	}
	*p = Packet{pool: pl, refs: 1}
	p.IP.Protocol = proto
	switch proto {
	case ProtoTCP:
		p.TCP = &p.tcp
		p.tcp.Opt.SACKBlocks = p.sack[:0]
	case ProtoUDP:
		p.UDP = &p.udp
	}
	return p
}

// Outstanding reports how many packets Get has handed out that have
// not been released yet.
//
// Test accessor: hack, node, rohc.
func (pl *Pool) Outstanding() int {
	if pl == nil {
		return 0
	}
	return pl.outstanding
}

// Retain adds a reference for a holder that keeps p while also passing
// it on. It is a no-op for a packet from a nil pool.
func (p *Packet) Retain() {
	if p.pool == nil {
		return
	}
	if p.refs <= 0 {
		panic("packet: Retain of a released packet")
	}
	p.refs++
}

// Release drops one reference. The last one scrubs the packet — every
// header zeroed, TCP and UDP nil, so a holder that kept it without a
// reference fails loudly — and returns it to its pool. Releasing a
// packet that has no reference left panics. Release is a no-op for a
// packet from a nil pool.
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	if p.refs <= 0 {
		panic("packet: Release of a released packet")
	}
	if p.refs--; p.refs > 0 {
		return
	}
	*p = Packet{pool: pl}
	pl.outstanding--
	pl.free = append(pl.free, p)
}
