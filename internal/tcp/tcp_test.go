package tcp

import (
	"math/rand"
	"testing"

	"tcphack/internal/packet"
	"tcphack/internal/sim"
)

// pipe wires two endpoints through a fixed-delay link with a
// programmable drop function.
type pipe struct {
	sched *sim.Scheduler
	delay sim.Duration
	// drop, if non-nil, is consulted per packet (direction "a2b" or
	// "b2a"); returning true discards the packet.
	drop func(dir string, n int, p *packet.Packet) bool

	countA2B, countB2A int
}

func newPair(seed int64, delay sim.Duration) (*sim.Scheduler, *pipe, *Endpoint, *Endpoint) {
	sched := sim.NewScheduler(seed)
	pp := &pipe{sched: sched, delay: delay}
	cfgA := DefaultConfig()
	cfgA.Local, cfgA.LocalPort = packet.IP(10, 0, 0, 1), 5001
	cfgA.Remote, cfgA.RemotePort = packet.IP(10, 0, 0, 2), 6001
	cfgB := DefaultConfig()
	cfgB.Local, cfgB.LocalPort = packet.IP(10, 0, 0, 2), 6001
	cfgB.Remote, cfgB.RemotePort = packet.IP(10, 0, 0, 1), 5001
	a := NewEndpoint(sched, cfgA)
	b := NewEndpoint(sched, cfgB)
	a.Output = func(p *packet.Packet) {
		pp.countA2B++
		if pp.drop != nil && pp.drop("a2b", pp.countA2B, p) {
			return
		}
		q := p.Clone()
		sched.After(pp.delay, func() { b.Input(q) })
	}
	b.Output = func(p *packet.Packet) {
		pp.countB2A++
		if pp.drop != nil && pp.drop("b2a", pp.countB2A, p) {
			return
		}
		q := p.Clone()
		sched.After(pp.delay, func() { a.Input(q) })
	}
	return sched, pp, a, b
}

func TestHandshakeAndTransfer(t *testing.T) {
	sched, _, a, b := newPair(1, sim.Millisecond)
	b.Listen()
	delivered := 0
	b.OnDeliver = func(n int) { delivered += n }
	doneA, doneB := false, false
	a.OnDone = func() { doneA = true }
	b.OnDone = func() { doneB = true }
	const total = 1 << 20
	a.Send(total)
	a.Connect()
	sched.RunUntil(10 * sim.Second)
	if !a.Established() || !b.Established() {
		t.Fatalf("states: a=%s b=%s", a.State(), b.State())
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	if !doneA || !doneB {
		t.Errorf("done flags: a=%v b=%v (states a=%s b=%s)", doneA, doneB, a.State(), b.State())
	}
	if a.Stats.Retransmits != 0 || a.Stats.Timeouts != 0 {
		t.Errorf("lossless transfer retransmitted: %+v", a.Stats)
	}
	if b.Stats.BytesDelivered != total {
		t.Errorf("BytesDelivered = %d", b.Stats.BytesDelivered)
	}
}

func TestDelayedAckRatio(t *testing.T) {
	sched, _, a, b := newPair(2, sim.Millisecond)
	b.Listen()
	a.Send(2 << 20)
	a.Connect()
	sched.RunUntil(20 * sim.Second)
	segs := a.Stats.SegsSent
	acks := b.Stats.PureAcksSent
	// Delayed ACK: roughly one ACK per two segments (plus OOO/edge
	// cases; lossless here, so the ratio is tight).
	ratio := float64(segs) / float64(acks)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("segments/ACKs = %.2f (segs=%d acks=%d), want ≈2", ratio, segs, acks)
	}
}

func TestDelAckTimerFlushesLoneSegment(t *testing.T) {
	sched, _, a, b := newPair(4, sim.Millisecond)
	b.Listen()
	a.Send(1000) // single segment: delayed ACK must fire by timeout
	a.Connect()
	sched.RunUntil(5 * sim.Second)
	if b.Stats.BytesDelivered != 1000 {
		t.Fatalf("delivered %d", b.Stats.BytesDelivered)
	}
	if !a.Done() {
		t.Errorf("sender not done (state %s): lone-segment ACK never flushed", a.State())
	}
}

func TestFastRetransmit(t *testing.T) {
	sched, pp, a, b := newPair(5, sim.Millisecond)
	b.Listen()
	dropped := false
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		// Drop one mid-stream data segment once.
		if dir == "a2b" && !dropped && p.PayloadLen > 0 && p.TCP.Seq > 100000 {
			dropped = true
			return true
		}
		return false
	}
	const total = 2 << 20
	delivered := 0
	b.OnDeliver = func(n int) { delivered += n }
	a.Send(total)
	a.Connect()
	sched.RunUntil(30 * sim.Second)
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	if !dropped {
		t.Fatal("test never dropped a segment")
	}
	if a.Stats.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1", a.Stats.FastRecoveries)
	}
	if a.Stats.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (fast retransmit must win)", a.Stats.Timeouts)
	}
	if a.Stats.Retransmits == 0 {
		t.Error("no retransmissions recorded")
	}
	if b.Stats.BytesDelivered != total {
		t.Errorf("receiver delivered %d", b.Stats.BytesDelivered)
	}
}

func TestSACKBlocksGenerated(t *testing.T) {
	sched, pp, a, b := newPair(6, sim.Millisecond)
	b.Listen()
	sawSACK := false
	dropped := false
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		if dir == "a2b" && !dropped && p.PayloadLen > 0 && p.TCP.Seq > 50000 {
			dropped = true
			return true
		}
		if dir == "b2a" && len(p.TCP.Opt.SACKBlocks) > 0 {
			sawSACK = true
		}
		return false
	}
	a.Send(1 << 20)
	a.Connect()
	sched.RunUntil(30 * sim.Second)
	if !sawSACK {
		t.Error("no SACK blocks observed after loss")
	}
}

func TestRTORecovery(t *testing.T) {
	sched, pp, a, b := newPair(7, sim.Millisecond)
	b.Listen()
	// Drop the transfer's entire tail window once (per distinct seq):
	// no later data exists to generate three dup ACKs, so only the RTO
	// can recover, and go-back-N must refill the hole.
	const total = 4 << 20
	killedOnce := make(map[uint32]bool)
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		if dir != "a2b" || p.PayloadLen == 0 {
			return false
		}
		if p.TCP.Seq > total-300000 && !killedOnce[p.TCP.Seq] {
			killedOnce[p.TCP.Seq] = true
			return true
		}
		return false
	}
	delivered := 0
	b.OnDeliver = func(n int) { delivered += n }
	a.Send(total)
	a.Connect()
	sched.RunUntil(120 * sim.Second)
	if delivered != total {
		t.Fatalf("delivered %d of %d (timeouts=%d rtx=%d)", delivered, total,
			a.Stats.Timeouts, a.Stats.Retransmits)
	}
	if a.Stats.Timeouts == 0 {
		t.Error("expected at least one RTO")
	}
	if !a.Done() || !b.Done() {
		t.Errorf("done: a=%s b=%s", a.State(), b.State())
	}
}

func TestTimestampsEchoed(t *testing.T) {
	sched, pp, a, b := newPair(8, 5*sim.Millisecond)
	b.Listen()
	sawEcho := false
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		if dir == "b2a" && p.TCP.Opt.HasTimestamps && p.TCP.Opt.TSEcr != 0 {
			sawEcho = true
		}
		return false
	}
	a.Send(1 << 18)
	a.Connect()
	sched.RunUntil(10 * sim.Second)
	if !sawEcho {
		t.Error("receiver never echoed timestamps")
	}
	// SRTT should be near 2×5 ms (quantized to the 1 ms TS clock).
	if a.SRTT() < 5*sim.Millisecond || a.SRTT() > 30*sim.Millisecond {
		t.Errorf("SRTT = %v, want ≈10ms", a.SRTT())
	}
}

func TestReceiverWindowLimitsFlight(t *testing.T) {
	sched := sim.NewScheduler(9)
	cfgA := DefaultConfig()
	cfgA.Local, cfgA.LocalPort = packet.IP(1, 1, 1, 1), 1
	cfgA.Remote, cfgA.RemotePort = packet.IP(2, 2, 2, 2), 2
	cfgB := DefaultConfig()
	cfgB.RcvWindow = 16 << 10 // 16 KiB
	cfgB.Local, cfgB.LocalPort = packet.IP(2, 2, 2, 2), 2
	cfgB.Remote, cfgB.RemotePort = packet.IP(1, 1, 1, 1), 1
	a, b := NewEndpoint(sched, cfgA), NewEndpoint(sched, cfgB)
	maxFlight := uint32(0)
	a.Output = func(p *packet.Packet) {
		if f := a.flightSize(); f > maxFlight {
			maxFlight = f
		}
		q := p.Clone()
		sched.After(sim.Millisecond, func() { b.Input(q) })
	}
	b.Output = func(p *packet.Packet) {
		q := p.Clone()
		sched.After(sim.Millisecond, func() { a.Input(q) })
	}
	b.Listen()
	a.Send(1 << 20)
	a.Connect()
	sched.RunUntil(60 * sim.Second)
	if b.Stats.BytesDelivered != 1<<20 {
		t.Fatalf("delivered %d", b.Stats.BytesDelivered)
	}
	// Window advertisements are quantized by the scale shift; allow one
	// MSS of slack.
	if maxFlight > 16<<10+1500 {
		t.Errorf("flight reached %d with a 16 KiB receive window", maxFlight)
	}
}

func TestWindowScalingAllowsLargeFlight(t *testing.T) {
	sched, _, a, b := newPair(10, 20*sim.Millisecond)
	b.Listen()
	maxFlight := uint32(0)
	out := a.Output
	a.Output = func(p *packet.Packet) {
		if f := a.flightSize(); f > maxFlight {
			maxFlight = f
		}
		out(p)
	}
	a.SendForever()
	a.Connect()
	sched.RunUntil(20 * sim.Second)
	// 40 ms RTT with no loss: cwnd must blow straight past 64 KB,
	// which only works if window scaling is negotiated.
	if maxFlight <= 64<<10 {
		t.Errorf("max flight %d never exceeded unscaled 64 KiB", maxFlight)
	}
}

func TestCwndGrowth(t *testing.T) {
	sched, _, a, b := newPair(11, 10*sim.Millisecond)
	b.Listen()
	a.SendForever()
	a.Connect()
	sched.RunUntil(200 * sim.Millisecond)
	early := a.cwnd
	sched.RunUntil(5 * sim.Second)
	late := a.cwnd
	if early <= uint32(10*effectiveMSS)/2 {
		t.Errorf("early cwnd %d below initial window", early)
	}
	if late <= early {
		t.Errorf("cwnd did not grow: %d → %d", early, late)
	}
}

func TestRandomLossEventualDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sched, pp, a, b := newPair(12, 2*sim.Millisecond)
	b.Listen()
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		if p.TCP.Flags&packet.FlagSYN != 0 {
			return false // keep the handshake clean for test brevity
		}
		return rng.Float64() < 0.03
	}
	const total = 2 << 20
	delivered := 0
	b.OnDeliver = func(n int) { delivered += n }
	a.Send(total)
	a.Connect()
	sched.RunUntil(300 * sim.Second)
	if delivered != total {
		t.Fatalf("delivered %d of %d under 3%% loss (timeouts=%d fastrec=%d rtx=%d)",
			delivered, total, a.Stats.Timeouts, a.Stats.FastRecoveries, a.Stats.Retransmits)
	}
	if b.Stats.BytesDelivered != total {
		t.Errorf("over/under delivery: %d", b.Stats.BytesDelivered)
	}
}

func TestSynLossRecovers(t *testing.T) {
	sched, pp, a, b := newPair(13, sim.Millisecond)
	b.Listen()
	drops := 0
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		if p.TCP.Flags&packet.FlagSYN != 0 && p.TCP.Flags&packet.FlagACK == 0 && drops == 0 {
			drops++
			return true
		}
		return false
	}
	a.Send(10000)
	a.Connect()
	sched.RunUntil(30 * sim.Second)
	if !a.Established() {
		t.Fatalf("handshake never recovered from SYN loss (state %s)", a.State())
	}
	if b.Stats.BytesDelivered != 10000 {
		t.Errorf("delivered %d", b.Stats.BytesDelivered)
	}
}

func TestPureAcksAreCompressible(t *testing.T) {
	// Every pure ACK the receiver emits must satisfy packet.IsTCPAck —
	// the predicate the HACK driver uses to intercept them.
	sched, pp, a, b := newPair(14, sim.Millisecond)
	b.Listen()
	bad := 0
	pure := 0
	pp.drop = func(dir string, n int, p *packet.Packet) bool {
		if dir == "b2a" && p.TCP.Flags&packet.FlagSYN == 0 {
			if p.IsTCPAck() {
				pure++
			} else {
				bad++
			}
		}
		return false
	}
	a.Send(1 << 20)
	a.Connect()
	sched.RunUntil(10 * sim.Second)
	if pure == 0 {
		t.Fatal("no pure ACKs observed")
	}
	if bad != 0 {
		t.Errorf("%d receiver packets were not pure ACKs", bad)
	}
}

func TestIntervalInsert(t *testing.T) {
	var l []interval
	l = insertInterval(l, interval{10, 20})
	l = insertInterval(l, interval{30, 40})
	l = insertInterval(l, interval{20, 30}) // bridges the gap
	if len(l) != 1 || l[0] != (interval{10, 40}) {
		t.Errorf("merged = %v", l)
	}
	l = insertInterval(l, interval{5, 8})
	if len(l) != 2 || l[0] != (interval{5, 8}) {
		t.Errorf("prepend = %v", l)
	}
	l = insertInterval(l, interval{0, 100})
	if len(l) != 1 || l[0] != (interval{0, 100}) {
		t.Errorf("absorb = %v", l)
	}
}

func TestStateStrings(t *testing.T) {
	for s := stateClosed; s <= stateDone; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty string", int(s))
		}
	}
}

func BenchmarkBulkTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched, _, a, bb := newPair(int64(i), sim.Millisecond)
		bb.Listen()
		a.Send(1 << 20)
		a.Connect()
		sched.RunUntil(10 * sim.Second)
		if bb.Stats.BytesDelivered != 1<<20 {
			b.Fatal("incomplete transfer")
		}
	}
}

// State returns a printable connection state (for traces and tests).
func (ep *Endpoint) State() string { return ep.state.String() }

// Established reports whether the handshake has completed.
func (ep *Endpoint) Established() bool {
	return ep.state == stateEstablished || ep.state == stateFinWait || ep.state == stateDone
}

// Done reports whether a finite transfer has fully completed.
func (ep *Endpoint) Done() bool { return ep.state == stateDone }

// SRTT exposes the smoothed RTT (0 until the first sample).
func (ep *Endpoint) SRTT() sim.Duration { return ep.srtt }
