// Package node composes the full simulated network the paper
// evaluates: WiFi stations (clients and access points) that stack a
// host TCP/IP implementation, a HACK driver, and an 802.11 MAC; wired
// backhaul links; and a wired server. It provides the flow
// orchestration (staggered TCP downloads/uploads, saturating UDP) that
// the experiment runners parameterize.
//
// Topology (the paper's §4.3 setup):
//
//	server ──(500 Mbps, 1 ms wire)── AP ))) clients (≤10, 10 m circle)
//
// For the SoRa testbed experiments (§4.1) the AP itself hosts the TCP
// sender (the testbed ran iperf between SoRa nodes in ad-hoc mode), so
// the wire is unused.
//
// Config.BSSs generalizes the topology to multiple overlapping BSSs —
// each its own AP (with its own backhaul to the shared server) plus
// client set, all contending on one channel.Medium — for the spatial
// PHY scenarios (Config.Geometry). MAC addresses are globally unique
// across BSSs and each AP bridges over WiFi only to its own clients,
// so block-ack sessions and ROHC contexts can never cross BSSs. With
// one BSS the assembly is bit-identical to the pre-spatial builds.
package node

import (
	"fmt"
	"math"

	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/mac"
	"tcphack/internal/packet"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/stats"
	"tcphack/internal/tcp"
	"tcphack/internal/trace"
)

// Config parameterizes a Network.
type Config struct {
	Seed int64
	// Mode selects the HACK policy at every station (ModeOff = stock).
	Mode hack.Mode

	// PHY/MAC.
	DataRate phy.Rate
	AckRate  phy.Rate // zero: 802.11 control-response rules
	// RateAdapter selects per-station rate adaptation, in
	// mac.ParseAdapterSpec's vocabulary: "" or "fixed" pins DataRate
	// (the paper's fixed-rate methodology), "fixed:<rate>" pins a
	// named rate, "ideal" is the negligible-FER threshold oracle,
	// "argmax" the expected-goodput argmax oracle, "minstrel" the
	// sampling adapter. Every station gets its own adapter instance
	// with per-network deterministic state. Invalid specs panic in
	// New; CLIs should pre-validate with mac.ParseAdapterSpec.
	RateAdapter     string
	Aggregation     bool
	TXOPLimit       sim.Duration
	AckTurnaround   sim.Duration // SoRa LL ACK lateness (all stations)
	AckTimeoutSlack sim.Duration // widened ACK timeout to match

	// Topology.
	Clients   int
	ClientPos func(i int) channel.Pos // default: circle of radius 10 m
	Err       channel.ErrorModel      // default: lossless
	// APPos places the (first) AP; the default origin matches the
	// paper's star topology.
	APPos channel.Pos
	// BSSs, when non-empty, replaces the single-BSS topology: one
	// entry per BSS, all sharing the medium. Empty means one implicit
	// BSS built from APPos/Clients/ClientPos (the legacy layout).
	BSSs []BSSSpec
	// Geometry, when non-nil, switches the shared medium to the
	// spatial PHY (per-pair path loss, per-receiver carrier sense,
	// SINR capture). Nil keeps one collision domain.
	Geometry *channel.Geometry

	// APQueueLimit sizes the AP's transmit queue: the paper uses 126
	// packets per flow ("three batches of 42"). A client's queue holds
	// 1000.
	APQueueLimit int

	// Wire (server—AP). WireRate 0 disables the server (AP hosts
	// senders, the SoRa topology).
	WireRateKbps int
	WireDelay    sim.Duration

	// Tracer, when non-nil, receives the events of every layer: the
	// channel, MAC and HACK driver get it as the network is assembled,
	// and each flow's TCP endpoints when the flow starts. Tracing is
	// determinism-neutral: attaching a tracer perturbs no RNG stream,
	// event ordering, or protocol decision; with a nil Tracer every
	// probe site is a single pointer check. A tracer that reads only
	// the medium's events, like trace.AirtimeLedger, belongs on
	// Network.Medium.Tracer instead, set after New returns.
	Tracer trace.Tracer
}

// The host model, and the client queue size.
const (
	// stackDelay is the TCP stack turnaround (≫ SIFS).
	stackDelay = 50 * sim.Microsecond
	// forwardDelay is the AP driver's forwarding latency.
	forwardDelay = 10 * sim.Microsecond
	// clientQueueLimit caps a client's transmit queue per destination.
	clientQueueLimit = 1000
)

func (c Config) withDefaults() Config {
	if c.DataRate.IsZero() {
		c.DataRate = phy.RateA54
	}
	if c.Clients == 0 {
		c.Clients = 1
	}
	if len(c.BSSs) == 0 {
		c.BSSs = []BSSSpec{{APPos: c.APPos, Clients: c.Clients, ClientPos: c.ClientPos}}
	} else {
		// Fill defaults into a copy: the caller's slice may be shared,
		// e.g. by every point of a campaign that sweeps clients.
		c.BSSs = append([]BSSSpec(nil), c.BSSs...)
	}
	for bi := range c.BSSs {
		if c.BSSs[bi].Clients == 0 {
			c.BSSs[bi].Clients = c.Clients
		}
		if c.BSSs[bi].ClientPos == nil {
			k := c.BSSs[bi].Clients
			ap := c.BSSs[bi].APPos
			c.BSSs[bi].ClientPos = func(i int) channel.Pos {
				angle := 2 * math.Pi * float64(i) / float64(k)
				return channel.Pos{X: ap.X + float64(10*math.Cos(angle)), Y: ap.Y + float64(10*math.Sin(angle))}
			}
		}
	}
	if c.APQueueLimit == 0 {
		c.APQueueLimit = 126
	}
	if c.WireDelay == 0 {
		c.WireDelay = sim.Millisecond
	}
	return c
}

// BSSSpec describes one BSS of a multi-BSS topology: an AP position
// plus its client set. Zero Clients inherits Config.Clients (so a
// campaign's clients axis scales every BSS together); nil ClientPos
// defaults to a 10 m circle around the AP.
type BSSSpec struct {
	// APPos places the BSS's access point.
	APPos channel.Pos
	// Clients is the number of client stations (0 inherits
	// Config.Clients).
	Clients int
	// ClientPos places client i of this BSS (nil: 10 m circle around
	// APPos).
	ClientPos func(i int) channel.Pos
}

// BSS is one assembled BSS: its AP, its clients (also present in
// Network.Clients), and its backhaul links to the shared server.
type BSS struct {
	// Index is the BSS's position in Network.BSSes.
	Index int
	// AP is the BSS's access point.
	AP *WifiNode
	// Clients are the BSS's client nodes, in global-index order.
	Clients        []*WifiNode
	wireUp, wireDn *Link // up: AP→server, dn: server→AP
}

// Addressing plan. MAC addresses are assigned sequentially in
// construction order (BSS 0's AP, its clients, BSS 1's AP, …), so
// with a single BSS the AP is addr 1 and clients start at 2 — the
// historical constants below.
const (
	apMAC    = mac.Addr(1)
	basePort = 5001
)

var serverIP = packet.IP(10, 0, 0, 1)

func clientIP(i int) packet.Addr { return packet.IP(192, 168, 0, byte(10+i)) }

// bssAPIP returns the AP address for BSS b: 192.168.b.1.
func bssAPIP(b int) packet.Addr { return packet.IP(192, 168, byte(b), 1) }

// Link is a full-duplex point-to-point wired link (one Link per
// direction): fixed rate, fixed propagation delay, FIFO serialization.
type Link struct {
	sched     *sim.Scheduler
	rateKbps  int
	delay     sim.Duration
	busyUntil sim.Time
	deliver   func(any) // persistent Post callback wrapping Deliver
	// Deliver receives packets at the far end.
	Deliver func(*packet.Packet)
}

// NewLink creates a link; rateKbps 0 means infinite rate.
func NewLink(sched *sim.Scheduler, rateKbps int, delay sim.Duration) *Link {
	l := &Link{sched: sched, rateKbps: rateKbps, delay: delay}
	l.deliver = func(a any) { l.Deliver(a.(*packet.Packet)) }
	return l
}

// Send serializes p onto the link; its reference passes to Deliver.
func (l *Link) Send(p *packet.Packet) {
	now := l.sched.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var txTime sim.Duration
	if l.rateKbps > 0 {
		txTime = sim.Duration(int64(p.Len()) * 8 * int64(sim.Second) / (int64(l.rateKbps) * 1000))
	}
	l.busyUntil = start + txTime
	l.sched.Post(l.busyUntil+l.delay, l.deliver, p)
}

// endpointTable finds a host's TCP endpoints by their five-tuple. The
// latest endpoint found sits in front of the map: a host meets a
// flow's packets in runs, so most lookups compare one tuple and hash
// nothing. The zero value is ready to use.
type endpointTable struct {
	m         map[packet.FiveTuple]*tcp.Endpoint
	last      *tcp.Endpoint
	lastTuple packet.FiveTuple
}

func (t *endpointTable) add(ep *tcp.Endpoint) {
	if t.m == nil {
		t.m = make(map[packet.FiveTuple]*tcp.Endpoint)
	}
	t.m[ep.Tuple()] = ep
	t.last = nil // ep may replace the cached endpoint
}

// find returns the endpoint whose tuple is k, or nil.
func (t *endpointTable) find(k packet.FiveTuple) *tcp.Endpoint {
	if t.last != nil && t.lastTuple == k {
		return t.last
	}
	ep := t.m[k]
	if ep != nil {
		t.last, t.lastTuple = ep, k
	}
	return ep
}

// WifiNode is a WiFi station with a host stack and HACK driver.
type WifiNode struct {
	net     *Network
	bss     *BSS
	isAP    bool
	MAC     *mac.Station
	Driver  *hack.Driver
	IP      packet.Addr
	MACAddr mac.Addr

	// Persistent Post callbacks for the per-packet host-delay events
	// (one closure per node instead of one per packet).
	localIn func(any)
	routeFn func(any)

	endpoints endpointTable
	// Goodput measures application bytes received at this node
	// (TCP payload or UDP payload).
	Goodput stats.Goodput
}

// Network is the assembled simulation.
type Network struct {
	Cfg    Config
	Sched  *sim.Scheduler
	Medium *channel.Medium
	// AP is BSS 0's access point (every network has at least one BSS).
	AP *WifiNode
	// Clients holds every client of every BSS in global-index order
	// (BSS 0's clients first).
	Clients []*WifiNode
	// BSSes lists the assembled BSSs; a legacy single-BSS network has
	// exactly one.
	BSSes []*BSS
	// Server endpoints/state (empty when WireRateKbps == 0).
	serverEndpoints endpointTable
	clientIdx       map[packet.Addr]int
	clientBSS       []int // global client index → BSS index
	addrBSS         map[mac.Addr]int

	// lastIP, lastClient and lastIsClient hold clientByIP's latest
	// answer: an AP forwards a flow's packets, and the ACKs a link-layer
	// ACK carried, in runs. The zero value answers 0.0.0.0, which is
	// no client's address, as the map would.
	lastIP       packet.Addr
	lastClient   int
	lastIsClient bool

	Flows []*Flow

	nextPort uint16
	// pool recycles every packet the network builds: TCP segments and
	// ACKs, ROHC reconstructions and UDP datagrams (see packet.Pool for
	// the ownership contract).
	pool *packet.Pool
}

// Flow is one transfer and its measurement hooks.
type Flow struct {
	Client   int
	Upload   bool
	Sender   *tcp.Endpoint
	Receiver *tcp.Endpoint
	Goodput  stats.Goodput
	Done     bool
	DoneAt   sim.Time
}

// New assembles a network per cfg.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	sched := sim.NewScheduler(cfg.Seed)
	medium := channel.New(sched, cfg.Err)
	medium.Tracer = cfg.Tracer
	medium.Geometry = cfg.Geometry
	n := &Network{
		Cfg:       cfg,
		Sched:     sched,
		Medium:    medium,
		clientIdx: make(map[packet.Addr]int),
		addrBSS:   make(map[mac.Addr]int),
		nextPort:  basePort,
		pool:      &packet.Pool{},
	}

	// Address plan: MAC addresses assigned sequentially in
	// construction order, client IPs numbered globally.
	type bssPlan struct {
		apAddr  mac.Addr
		clients []mac.Addr
	}
	plans := make([]bssPlan, len(cfg.BSSs))
	nextMAC := apMAC
	global := 0
	for bi, spec := range cfg.BSSs {
		plans[bi].apAddr = nextMAC
		n.addrBSS[nextMAC] = bi
		nextMAC++
		for i := 0; i < spec.Clients; i++ {
			plans[bi].clients = append(plans[bi].clients, nextMAC)
			n.addrBSS[nextMAC] = bi
			n.clientIdx[clientIP(global)] = global
			n.clientBSS = append(n.clientBSS, bi)
			nextMAC++
			global++
		}
	}

	payloadAllowance := 0
	if cfg.Mode != hack.ModeOff {
		// Budget the ACK timeout for the worst-case compressed payload.
		// The driver's frame budget (hack.Config.MaxPayload) is bounded
		// by this same constant, so a link-layer ACK can never outlast
		// the response deadline its peer derived from the allowance —
		// the contract whose violation once drove the MORE-DATA
		// collapse under uniform loss.
		payloadAllowance = hack.DefaultMaxPayload
	}
	adapterSpec, err := mac.ParseAdapterSpec(cfg.RateAdapter)
	if err != nil {
		panic(fmt.Sprintf("node: %v", err))
	}
	// The oracle adapters read every link's SNR off the channel's SNR
	// model, and know none without one.
	snrFor := func(mac.Addr) (float64, bool) { return 0, false }
	if snr := channel.FindSNRModel(cfg.Err); snr != nil {
		snrFor = func(mac.Addr) (float64, bool) { return snr.SNRDB, true }
	}
	// AIFSN: 802.11n EDCA best effort for HT rates, 802.11a DCF
	// otherwise.
	aifsn := 2
	if cfg.DataRate.HT {
		aifsn = phy.AIFSNBestEffort
	}
	// newAdapter builds one per-station adapter instance. Minstrel
	// forks its probe-schedule RNG off the network scheduler (like the
	// medium's RNG fork), so campaigns stay deterministic and
	// race-free; the fixed default returns nil so seed scenarios keep
	// bit-identical RNG streams.
	newAdapter := func() mac.RateAdapter {
		switch adapterSpec.Kind {
		case mac.AdapterIdeal:
			return &mac.IdealSNR{Rates: phy.RateFamily(cfg.DataRate), SNRFor: snrFor}
		case mac.AdapterArgmax:
			batch := 1
			if cfg.Aggregation {
				// One A-MPDU elicits a Block ACK window of per-MPDU
				// fates; the argmax scores whole-batch survival.
				batch = mac.BAWindowSize
			}
			return &mac.ExpectedGoodput{
				Rates:    phy.RateFamily(cfg.DataRate),
				BatchLen: batch,
				SNRFor:   snrFor,
			}
		case mac.AdapterMinstrel:
			return mac.NewMinstrel(mac.MinstrelConfig{Rates: phy.RateFamily(cfg.DataRate)}, sched.ForkRand())
		default:
			if !adapterSpec.Rate.IsZero() {
				return mac.FixedRate{Rate: adapterSpec.Rate}
			}
			return nil // mac defaults to FixedRate{DataRate}
		}
	}
	mkStation := func(addr mac.Addr, pos channel.Pos, queueLimit int) *mac.Station {
		return mac.NewStation(sched, medium, mac.Config{
			Addr: addr, Pos: pos,
			DataRate: cfg.DataRate, AckRate: cfg.AckRate,
			RateAdapter: newAdapter(),
			AIFSN:       aifsn,
			Aggregation: cfg.Aggregation, TXOPLimit: cfg.TXOPLimit,
			QueueLimit:          queueLimit,
			AckTurnaround:       cfg.AckTurnaround,
			AckTimeoutSlack:     cfg.AckTimeoutSlack,
			AckPayloadAllowance: payloadAllowance,
			Tracer:              cfg.Tracer,
		})
	}

	global = 0
	for bi, spec := range cfg.BSSs {
		b := &BSS{Index: bi}
		ap := n.newNode(mkStation(plans[bi].apAddr, spec.APPos, cfg.APQueueLimit), bssAPIP(bi), plans[bi].apAddr)
		ap.bss, ap.isAP = b, true
		b.AP = ap
		for i, addr := range plans[bi].clients {
			st := mkStation(addr, spec.ClientPos(i), clientQueueLimit)
			c := n.newNode(st, clientIP(global), addr)
			c.bss = b
			b.Clients = append(b.Clients, c)
			n.Clients = append(n.Clients, c)
			global++
		}
		n.BSSes = append(n.BSSes, b)
	}
	n.AP = n.BSSes[0].AP

	if cfg.WireRateKbps > 0 {
		for _, b := range n.BSSes {
			b := b
			b.wireUp = NewLink(sched, cfg.WireRateKbps, cfg.WireDelay)
			b.wireDn = NewLink(sched, cfg.WireRateKbps, cfg.WireDelay)
			b.wireUp.Deliver = n.serverInput
			b.wireDn.Deliver = func(p *packet.Packet) { b.AP.route(p) }
		}
	}
	return n
}

// newNode builds a WifiNode around a MAC station.
func (n *Network) newNode(st *mac.Station, ip packet.Addr, addr mac.Addr) *WifiNode {
	w := &WifiNode{
		net: n, MAC: st, IP: ip, MACAddr: addr,
	}
	w.localIn = func(a any) { w.localInput(a.(*packet.Packet)) }
	w.routeFn = func(a any) { w.route(a.(*packet.Packet)) }
	d := hack.NewDriver(n.Sched, hack.Config{
		Mode:   n.Cfg.Mode,
		Addr:   addr,
		Tracer: n.Cfg.Tracer,
	})
	d.Pool = n.pool
	d.EnqueueNative = func(dst mac.Addr, p *packet.Packet) bool {
		return st.EnqueuePacket(dst, p, true)
	}
	d.ForwardUp = func(from mac.Addr, p *packet.Packet) {
		// Reconstituted TCP ACKs surface at the driver; forward after
		// the driver's processing latency.
		n.Sched.PostAfter(forwardDelay, w.routeFn, p)
	}
	d.WithdrawNative = func(dst mac.Addr, p *packet.Packet) bool {
		// The compressed copy supersedes the withdrawn native.
		return st.RemoveQueued(dst, func(m *mac.MSDU) bool { return m.Packet == p })
	}
	st.OnMSDUResolved = func(m *mac.MSDU, delivered bool) {
		if m.IsTCPAck {
			d.NativeResolved(m.Dst, m.Packet, delivered)
		}
	}
	w.Driver = d
	st.Hooks = d
	st.Deliver = func(m *mac.MSDU) { w.fromWifi(m) }
	return w
}

// fromWifi handles an MSDU delivered by the MAC. The sender's MSDU
// keeps its reference until its (Block) ACK resolves, so the packet
// travels on with a reference of its own.
func (w *WifiNode) fromWifi(m *mac.MSDU) {
	p := m.Packet
	if p.IsTCPAck() {
		// Keep the decompressor context in sync with natively
		// travelling ACKs.
		w.Driver.ObserveNativeAck(p)
	}
	p.Retain()
	if p.IP.Dst == w.IP {
		// Local delivery through the host stack.
		w.net.Sched.PostAfter(stackDelay, w.localIn, p)
		return
	}
	// Forwarding (AP role).
	w.net.Sched.PostAfter(forwardDelay, w.routeFn, p)
}

// localInput demultiplexes a packet to this node's stack, which is
// its last holder.
func (w *WifiNode) localInput(p *packet.Packet) {
	if p.UDP != nil {
		w.Goodput.Add(w.net.Sched.Now(), p.PayloadLen)
	} else if t, ok := p.Tuple(); ok {
		if ep := w.endpoints.find(t.Reverse()); ep != nil {
			ep.Input(p)
		}
	}
	p.Release()
}

// route sends p toward its destination IP from this node.
func (w *WifiNode) route(p *packet.Packet) {
	dst := p.IP.Dst
	switch {
	case dst == w.IP:
		w.localInput(p)
	case w.isAP:
		// AP: toward one of its own clients over WiFi, or upstream over
		// its wire. Clients of other BSSs are never bridged over WiFi —
		// that confinement (plus globally unique MAC addresses) is what
		// keeps block-ack sessions and ROHC contexts BSS-local.
		if ci, ok := w.net.clientByIP(dst); ok && w.net.clientBSS[ci] == w.bss.Index {
			w.sendWifi(w.net.Clients[ci].MACAddr, p)
		} else if w.bss.wireUp != nil {
			w.bss.wireUp.Send(p)
		} else {
			p.Release() // no next hop
		}
	default:
		// Clients reach everything via their own AP.
		w.sendWifi(w.bss.AP.MACAddr, p)
	}
}

// sendWifi enqueues p for WiFi transmission, routing pure TCP ACKs
// through the HACK driver.
func (w *WifiNode) sendWifi(dst mac.Addr, p *packet.Packet) {
	if p.IsTCPAck() {
		w.Driver.SubmitAck(dst, p)
		return
	}
	w.MAC.EnqueuePacket(dst, p, false)
}

func (n *Network) clientByIP(ip packet.Addr) (int, bool) {
	if ip != n.lastIP {
		n.lastClient, n.lastIsClient = n.clientIdx[ip]
		n.lastIP = ip
	}
	return n.lastClient, n.lastIsClient
}

// bssOf returns the BSS owning global client index ci.
func (n *Network) bssOf(ci int) *BSS { return n.BSSes[n.clientBSS[ci]] }

// BSSOfAddr maps a station MAC address to its BSS index, or -1 for an
// unknown address. Campaign collectors use it to attribute per-station
// airtime to BSSs.
func (n *Network) BSSOfAddr(a mac.Addr) int {
	if bi, ok := n.addrBSS[a]; ok {
		return bi
	}
	return -1
}

// serverInput demultiplexes a packet arriving at the server, which is
// its last holder.
func (n *Network) serverInput(p *packet.Packet) {
	if t, ok := p.Tuple(); ok {
		if ep := n.serverEndpoints.find(t.Reverse()); ep != nil {
			ep.Input(p)
		}
	}
	p.Release()
}

// endpointPair creates a connected sender/receiver endpoint pair for a
// flow between srcIP and dstIP. Output wiring depends on where each
// end lives.
func (n *Network) allocPort() uint16 {
	n.nextPort++
	return n.nextPort
}

// StartDownload starts a TCP transfer of totalBytes toward client ci,
// beginning at startAt. totalBytes 0 means unbounded. The sender lives
// on the server when the wire exists, else on the AP (SoRa topology).
func (n *Network) StartDownload(ci int, totalBytes uint64, startAt sim.Duration) *Flow {
	port := n.allocPort()
	bss := n.bssOf(ci)
	senderIP := serverIP
	if bss.wireDn == nil {
		senderIP = bss.AP.IP
	}
	scfg := tcp.DefaultConfig()
	scfg.Local, scfg.LocalPort = senderIP, port
	scfg.Remote, scfg.RemotePort = clientIP(ci), port
	rcfg := tcp.DefaultConfig()
	rcfg.Local, rcfg.LocalPort = clientIP(ci), port
	rcfg.Remote, rcfg.RemotePort = senderIP, port
	scfg.Tracer, rcfg.Tracer = n.Cfg.Tracer, n.Cfg.Tracer

	sender := tcp.NewEndpoint(n.Sched, scfg)
	receiver := tcp.NewEndpoint(n.Sched, rcfg)
	f := &Flow{Client: ci, Sender: sender, Receiver: receiver}
	return n.finishFlow(f, ci, sender, receiver, totalBytes, startAt, false)
}

// StartUpload starts a TCP transfer of totalBytes from client ci.
func (n *Network) StartUpload(ci int, totalBytes uint64, startAt sim.Duration) *Flow {
	port := n.allocPort()
	bss := n.bssOf(ci)
	peerIP := serverIP
	if bss.wireUp == nil {
		peerIP = bss.AP.IP
	}
	scfg := tcp.DefaultConfig()
	scfg.Local, scfg.LocalPort = clientIP(ci), port
	scfg.Remote, scfg.RemotePort = peerIP, port
	rcfg := tcp.DefaultConfig()
	rcfg.Local, rcfg.LocalPort = peerIP, port
	rcfg.Remote, rcfg.RemotePort = clientIP(ci), port
	scfg.Tracer, rcfg.Tracer = n.Cfg.Tracer, n.Cfg.Tracer

	sender := tcp.NewEndpoint(n.Sched, scfg)
	receiver := tcp.NewEndpoint(n.Sched, rcfg)
	f := &Flow{Client: ci, Upload: true, Sender: sender, Receiver: receiver}
	return n.finishFlow(f, ci, sender, receiver, totalBytes, startAt, true)
}

// finishFlow wires endpoints into their hosts and schedules the start.
func (n *Network) finishFlow(f *Flow, ci int, sender, receiver *tcp.Endpoint, totalBytes uint64, startAt sim.Duration, upload bool) *Flow {
	client := n.Clients[ci]
	bss := n.bssOf(ci)

	bindWifi := func(w *WifiNode, ep *tcp.Endpoint) {
		w.endpoints.add(ep)
		ep.Output = func(p *packet.Packet) { w.route(p) }
		ep.Pool = n.pool
	}
	bindServer := func(ep *tcp.Endpoint) {
		n.serverEndpoints.add(ep)
		ep.Output = func(p *packet.Packet) { bss.wireDn.Send(p) }
		ep.Pool = n.pool
	}

	wifiPeer := bss.AP // AP-resident endpoint when no wire
	if upload {
		bindWifi(client, sender)
		if bss.wireUp != nil {
			bindServer(receiver)
		} else {
			bindWifi(wifiPeer, receiver)
		}
	} else {
		bindWifi(client, receiver)
		if bss.wireDn != nil {
			bindServer(sender)
		} else {
			bindWifi(wifiPeer, sender)
		}
	}

	receiver.OnDeliver = func(nb int) {
		f.Goodput.Add(n.Sched.Now(), nb)
		if !upload {
			client.Goodput.Add(n.Sched.Now(), nb)
		}
	}
	receiver.OnDone = func() {
		f.Done = true
		f.DoneAt = n.Sched.Now()
	}
	receiver.Listen()
	n.Sched.At(sim.Time(startAt), func() {
		if totalBytes == 0 {
			sender.SendForever()
		} else {
			sender.Send(totalBytes)
		}
		sender.Connect()
	})
	n.Flows = append(n.Flows, f)
	return f
}

// StartUDPDownload saturates client ci with UDP at rateKbps using
// payload-length pktLen datagrams, beginning at startAt. Delivered
// bytes accumulate in the client's Goodput.
func (n *Network) StartUDPDownload(ci int, rateKbps int, pktLen int, startAt sim.Duration) {
	dst := clientIP(ci)
	bss := n.bssOf(ci)
	srcIP := serverIP
	if bss.wireDn == nil {
		srcIP = bss.AP.IP
	}
	interval := sim.Duration(int64(pktLen) * 8 * int64(sim.Second) / (int64(rateKbps) * 1000))
	var ipID uint16
	var tick func(any)
	tick = func(any) {
		ipID++
		p := n.pool.Get(packet.ProtoUDP)
		p.IP.TTL, p.IP.ID = 64, ipID
		p.IP.Src, p.IP.Dst = srcIP, dst
		p.UDP.SrcPort, p.UDP.DstPort = 9, 9
		p.PayloadLen = pktLen - packet.IPv4HeaderLen - packet.UDPHeaderLen
		if bss.wireDn != nil {
			bss.wireDn.Send(p)
		} else {
			bss.AP.route(p)
		}
		n.Sched.PostAfter(interval, tick, nil)
	}
	n.Sched.Post(sim.Time(startAt), tick, nil)
}

// Run advances the simulation to the given time.
func (n *Network) Run(until sim.Duration) {
	n.Sched.RunUntil(sim.Time(until))
}

// minstrelOf returns the station's Minstrel adapter, or nil when the
// station runs a different (or no) rate-adaptation strategy.
func minstrelOf(st *mac.Station) *mac.Minstrel {
	m, _ := st.Config().RateAdapter.(*mac.Minstrel)
	return m
}

// APMinstrelStats returns the per-rate statistics the AP's Minstrel
// adapter has learned toward client ci — the download direction's
// learned state. It returns nil when the AP is not running Minstrel,
// ci is out of range, or no frames have flowed toward that client yet.
func (n *Network) APMinstrelStats(ci int) []mac.RateStats {
	if ci < 0 || ci >= len(n.Clients) {
		return nil
	}
	if m := minstrelOf(n.bssOf(ci).AP.MAC); m != nil {
		return m.Snapshot(n.Clients[ci].MACAddr)
	}
	return nil
}

// ClientMinstrelStats returns the per-rate statistics client ci's
// Minstrel adapter has learned toward the AP — the upload direction
// (and TCP ACK traffic under stock TCP).
func (n *Network) ClientMinstrelStats(ci int) []mac.RateStats {
	if ci < 0 || ci >= len(n.Clients) {
		return nil
	}
	if m := minstrelOf(n.Clients[ci].MAC); m != nil {
		return m.Snapshot(n.bssOf(ci).AP.MACAddr)
	}
	return nil
}

// DecompFailures totals ROHC decompression failures across all nodes —
// the paper's §4.3 health check (must be zero).
func (n *Network) DecompFailures() uint64 {
	var total uint64
	for _, b := range n.BSSes {
		total += b.AP.Driver.DecompFailures
	}
	for _, c := range n.Clients {
		total += c.Driver.DecompFailures
	}
	return total
}

func (n *Network) String() string {
	return fmt.Sprintf("network[%d clients, %v, mode=%v]", len(n.Clients), n.Cfg.DataRate, n.Cfg.Mode)
}
