package mac

import (
	"math"
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// Bianchi's saturation model (G. Bianchi, "Performance analysis of the
// IEEE 802.11 distributed coordination function", IEEE JSAC 18(3),
// 2000) is an oracle for the DCF that does not share code with it:
// every other differential test compares the simulator with itself.
// n saturated stations, each transmitting in a random slot with
// probability τ, see a collision with probability
// p = 1 − (1 − τ)^(n−1); a station backing off from W = CWmin+1 slots,
// doubling for m stages, transmits with
//
//	τ = 2 / (1 + W + pW Σ_{i<m} (2p)^i).
//
// That series form is the textbook closed form
// 2(1−2p) / ((1−2p)(W+1) + pW(1−(2p)^m)) with (1−(2p)^m)/(1−2p)
// expanded, so it has no 0/0 at p = ½.

// bianchiTau returns τ for conditional collision probability p.
func bianchiTau(p float64, w float64, m int) float64 {
	sum, term := 0.0, 1.0
	for i := 0; i < m; i++ {
		sum += term
		term *= 2 * p
	}
	return 2 / (1 + w + p*w*sum)
}

// bianchiFixedPoint solves p = 1 − (1 − τ(p))^(n−1) by bisection: the
// right-hand side falls as p rises, so p minus it is increasing.
func bianchiFixedPoint(n int, w float64, m int) (tau, p float64) {
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid-(1-math.Pow(1-bianchiTau(mid, w, m), float64(n-1))) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	p = (lo + hi) / 2
	return bianchiTau(p, w, m), p
}

// bianchiThroughput is the model's saturation throughput in Mbps for
// payloadBits per successful frame: the expected payload per slot over
// the expected slot length, where a slot is empty (σ), carries one
// transmission (Ts) or a collision (Tc).
func bianchiThroughput(n int, tau float64, payloadBits float64, sigma, ts, tc sim.Duration) float64 {
	ptr := 1 - math.Pow(1-tau, float64(n))
	ps := float64(n) * tau * math.Pow(1-tau, float64(n-1)) / ptr
	slot := (1-ptr)*sigma.Seconds() + ptr*ps*ts.Seconds() + ptr*(1-ps)*tc.Seconds()
	return ps * ptr * payloadBits / slot / 1e6
}

// jain is Jain's fairness index of xs: 1 when all are equal, 1/len(xs)
// when one takes everything.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// saturatedDCF runs n 802.11a stations at 54 Mbps, each sending 1500 B
// UDP datagrams to one sink over a lossless channel, with every queue
// topped up every 10 ms so it never empties and never drops. It
// returns p = ΣAckTimeouts / ΣFramesSent, the aggregate goodput in Mbps
// and each station's delivered datagrams.
func saturatedDCF(n int, seed int64, dur sim.Duration) (p, mbps float64, perStation []float64) {
	const ipLen, depth = 1500, 64
	e := newEnv(seed, nil)
	sink := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	senders := make([]*Station, n)
	for i := range senders {
		senders[i] = e.station(Config{Addr: Addr(2 + i), DataRate: phy.RateA54})
	}
	delivered := make([]float64, n)
	sink.Deliver = func(m *MSDU) { delivered[m.Src-2]++ }
	var refill func()
	refill = func() {
		for _, st := range senders {
			for q := st.queue(1); q.fifo.len() < depth; {
				st.Enqueue(udpMSDU(st.Addr(), 1, ipLen, 0))
			}
		}
		e.sched.After(10*sim.Millisecond, refill)
	}
	refill()
	e.sched.RunUntil(sim.Time(dur))
	var timeouts, sent, total float64
	for i, st := range senders {
		if st.Stats.QueueDrops != 0 {
			panic("saturatedDCF: a refill dropped")
		}
		timeouts += float64(st.Stats.AckTimeouts)
		sent += float64(st.Stats.FramesSent)
		total += delivered[i]
	}
	return timeouts / sent, total * ipLen * 8 / dur.Seconds() / 1e6, delivered
}

// TestBianchiSaturation checks contention against theory: for 2 to 50
// saturated stations, the simulated collision probability and
// throughput must match Bianchi's model, and symmetric stations must
// share the medium evenly. The model's constants come from the MAC
// itself: W = CWmin+1 = 16, m = 6 doubling stages (CWmax+1 = 16·2⁶),
// σ = the slot. A success occupies the data frame, SIFS, the ACK at the
// control-response rate and DIFS. A collision occupies the data frame
// and EIFS for every station not involved (the frame fails to decode),
// while the colliding senders wait out the ACK timeout and then EIFS
// (they overheard each other's frame collide); Tc is the mean of the
// two ends. The model assumes infinite retries; the MAC drops a frame
// after its retry limit of 7, with probability p⁸: under 0.3 % of
// frames for n ≤ 20 and 1.6 % at n = 50.
func TestBianchiSaturation(t *testing.T) {
	const dur = 20 * sim.Second
	st := newEnv(0, nil).station(Config{Addr: 1, DataRate: phy.RateA54})
	data := phy.FrameDuration(phy.RateA54, mpduWireLen(1500, false))
	ack := phy.FrameDuration(st.ackRateFor(phy.RateA54), ackLen)
	difs := st.dcf.ifs()
	st.dcf.eifs = true
	eifs := st.dcf.ifs()
	ackTimeout := st.respDeadline(0, false, phy.RateA54)
	ts := data + phy.SIFS + ack + difs
	tc := (data + eifs + data + ackTimeout + eifs) / 2
	w := float64(st.cfg.CWMin + 1)
	m := int(math.Round(math.Log2(float64(phy.CWMax+1) / w)))
	for i, n := range []int{2, 5, 10, 20, 50} {
		pSim, sSim, per := saturatedDCF(n, int64(100+i), dur)
		tau, pModel := bianchiFixedPoint(n, w, m)
		sModel := bianchiThroughput(n, tau, 1500*8, phy.SlotTime, ts, tc)
		dp, ds := (pSim-pModel)/pModel, (sSim-sModel)/sModel
		j := jain(per)
		t.Logf("n=%2d  p sim %.3f model %.3f (%+.1f%%)  S sim %.2f model %.2f Mbps (%+.1f%%)  Jain %.4f",
			n, pSim, pModel, 100*dp, sSim, sModel, 100*ds, j)
		if math.Abs(dp) > 0.08 {
			t.Errorf("n=%d: collision probability %.3f, model %.3f: off by %+.1f%%, want within 8%%", n, pSim, pModel, 100*dp)
		}
		if math.Abs(ds) > 0.05 {
			t.Errorf("n=%d: throughput %.2f Mbps, model %.2f: off by %+.1f%%, want within 5%%", n, sSim, sModel, 100*ds)
		}
		if j < 0.98 {
			t.Errorf("n=%d: per-station Jain index %.4f, want ≥ 0.98", n, j)
		}
	}
}
