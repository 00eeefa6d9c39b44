package channel

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// DegenerateGeometry returns the single collision domain as geometry
// values, whatever the radio positions: every radio senses every
// transmission (CS threshold -Inf), every frame reaches every radio
// (delivery floor -Inf), and capture never succeeds (margin +Inf), so
// any overlap collides everywhere. The medium treats it exactly as a
// nil Geometry (see oneDomain).
func DegenerateGeometry() *Geometry {
	g := DefaultGeometry()
	g.CSThresholdDBm = math.Inf(-1)
	g.DeliveryFloorDBm = math.Inf(-1)
	g.CaptureMarginDB = math.Inf(1)
	return g
}

// CaptureOK reports whether a frame at rate received at signalDBm
// decodes despite the given concurrent interferers: its SINR must
// clear SINRThresholdDB(rate) plus the capture margin. With no
// interferers the frame always decodes (noise corruption is the error
// model's job, drawn separately). It applies the dB capture rule,
// captures, to these powers, and the decision is deterministic and
// independent of interferer order.
func (g *Geometry) CaptureOK(rate phy.Rate, signalDBm float64, interferersDBm []float64) bool {
	if len(interferersDBm) == 0 {
		return true
	}
	return captures(phy.DBmToMilliwatts(signalDBm), phy.DBmToMilliwatts(g.NoiseDBm),
		interferenceMW(interferersDBm), SINRThresholdDB(rate)+g.CaptureMarginDB)
}

// SINRdB returns the signal-to-interference-plus-noise ratio in dB for
// a signal received at signalDBm over the given interferer powers and
// noise floor, with the arithmetic of the capture rule. The
// interferers are summed in a canonical order, so the result is
// bit-identical under any permutation of interferersDBm.
func SINRdB(signalDBm float64, interferersDBm []float64, noiseDBm float64) float64 {
	return sinrDB(phy.DBmToMilliwatts(signalDBm), phy.DBmToMilliwatts(noiseDBm), interferenceMW(interferersDBm))
}

// interferenceMW sums interferer powers in mW in descending canonical
// order: float addition is commutative but not associative, so a fixed
// order is what makes the sum permutation-independent (FuzzCapture
// pins this).
func interferenceMW(interferersDBm []float64) float64 {
	terms := make([]float64, len(interferersDBm))
	for i, p := range interferersDBm {
		terms[i] = phy.DBmToMilliwatts(p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(terms)))
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	return sum
}

// scriptedMedium builds a medium with three radios in the legacy test
// layout and runs a fixed transmission script with overlapping and
// sequential frames — the stimulus for the single-domain differential
// check.
func scriptedMedium(g *Geometry) (*Medium, []*testRadio) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = g
	a := &testRadio{}
	b := &testRadio{pos: Pos{X: 5}}
	c := &testRadio{pos: Pos{Y: 3}}
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	// Overlap pair, a clean frame, then a triple overlap.
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, "A1") })
	s.At(10*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1500, "B1") })
	s.At(2*sim.Millisecond, func() { m.Transmit(c, phy.RateA24, 300, "C1") })
	s.At(4*sim.Millisecond, func() { m.Transmit(a, phy.RateA54, 1500, "A2") })
	s.At(4*sim.Millisecond+20*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1400, "B2") })
	s.At(4*sim.Millisecond+40*sim.Microsecond, func() { m.Transmit(c, phy.RateA54, 1300, "C2") })
	s.Run()
	return m, []*testRadio{a, b, c}
}

// nearDegenerateGeometry is DefaultGeometry with carrier sense and the
// delivery floor at -300 dBm and a 10⁶ dB capture margin. Its values
// are finite, so the medium runs the general engine (power matrix,
// sensed sums, SINR decisions), yet every radio still senses and
// receives every frame and any overlap collides: it is the oracle for
// the single-collision-domain path.
func nearDegenerateGeometry() *Geometry {
	g := DefaultGeometry()
	g.CSThresholdDBm = -300
	g.DeliveryFloorDBm = -300
	g.CaptureMarginDB = 1e6
	return g
}

// TestDegenerateMatchesScalar is the channel-level differential check:
// the single-collision-domain path (a nil Geometry) must reproduce the
// general engine's observable behavior under the near-degenerate
// geometry — outcomes, frames, carrier edges, and counters — exactly.
func TestDegenerateMatchesScalar(t *testing.T) {
	lm, lr := scriptedMedium(nil)
	sm, sr := scriptedMedium(nearDegenerateGeometry())
	if lm.powerMW != nil || sm.powerMW == nil {
		t.Fatalf("engines: nil geometry built a power matrix %v, near-degenerate %v; want false, true",
			lm.powerMW != nil, sm.powerMW != nil)
	}

	for i := range lr {
		if !reflect.DeepEqual(lr[i].received, sr[i].received) {
			t.Errorf("radio %d outcomes: single-domain %v, general %v", i, lr[i].received, sr[i].received)
		}
		if !reflect.DeepEqual(lr[i].frames, sr[i].frames) {
			t.Errorf("radio %d frames: single-domain %v, general %v", i, lr[i].frames, sr[i].frames)
		}
		if lr[i].busy != sr[i].busy || lr[i].idle != sr[i].idle {
			t.Errorf("radio %d busy/idle: single-domain %d/%d, general %d/%d",
				i, lr[i].busy, lr[i].idle, sr[i].busy, sr[i].idle)
		}
	}
	if lm.TxCount != sm.TxCount {
		t.Errorf("TxCount: single-domain %d, general %d", lm.TxCount, sm.TxCount)
	}
	if lm.CollidedTx != sm.CollidedTx {
		t.Errorf("CollidedTx: single-domain %d, general %d", lm.CollidedTx, sm.CollidedTx)
	}
	if lm.AirtimeBusy != sm.AirtimeBusy {
		t.Errorf("AirtimeBusy: single-domain %v, general %v", lm.AirtimeBusy, sm.AirtimeBusy)
	}
}

// TestSpatialReuse pins the hidden-terminal physics at the channel
// level: two senders out of mutual range transmit concurrently. Each
// sender's nearby receiver decodes its frame (spatial reuse / capture),
// a receiver in the crossfire loses both, and the senders never sense
// each other.
func TestSpatialReuse(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = DefaultGeometry()
	a := &testRadio{pos: Pos{X: 0}}
	b := &testRadio{pos: Pos{X: 100}}
	nearA := &testRadio{pos: Pos{X: 2}}
	nearB := &testRadio{pos: Pos{X: 98}}
	mid := &testRadio{pos: Pos{X: 50}}
	for _, r := range []*testRadio{a, b, nearA, nearB, mid} {
		m.Attach(r)
	}
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, "A") })
	s.At(5*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1500, "B") })
	s.Run()

	if got := nearA.received; len(got) != 1 || got[0] != RxOK {
		t.Errorf("nearA outcomes %v, want [ok] (capture over 98 m interferer)", got)
	}
	if got := nearB.received; len(got) != 1 || got[0] != RxOK {
		t.Errorf("nearB outcomes %v, want [ok]", got)
	}
	if len(mid.received) != 2 {
		t.Fatalf("mid received %d frames, want both", len(mid.received))
	}
	for i, o := range mid.received {
		if o != RxCollided {
			t.Errorf("mid frame %d outcome %v, want collided", i, o)
		}
	}
	// 100 m apart is far beyond the ≈51.5 m sense range: neither sender
	// hears the other, and the overlap is uncoupled spatial reuse —
	// neither a carrier edge nor a counted collision at the senders.
	if a.busy != 1 || b.busy != 1 {
		t.Errorf("sender busy edges a=%d b=%d, want 1 each (own tx only)", a.busy, b.busy)
	}
	if len(a.received) != 0 || len(b.received) != 0 {
		t.Errorf("senders received frames from out-of-range peer: a=%v b=%v",
			a.received, b.received)
	}
}

// TestSpatialCarrierSense checks the energy-detect deferral footprint:
// a radio inside the carrier-sense range gets busy/idle edges for a
// foreign transmission, a radio beyond it stays idle.
func TestSpatialCarrierSense(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = DefaultGeometry()
	src := &testRadio{}
	near := &testRadio{pos: Pos{X: 40}}
	far := &testRadio{pos: Pos{X: 60}}
	m.Attach(src)
	m.Attach(near)
	m.Attach(far)
	m.Transmit(src, phy.RateA54, 1500, "x")
	s.Run()

	if near.busy != 1 || near.idle != 1 {
		t.Errorf("near busy/idle = %d/%d, want 1/1", near.busy, near.idle)
	}
	if far.busy != 0 || far.idle != 0 {
		t.Errorf("far busy/idle = %d/%d, want 0/0 (beyond CS range)", far.busy, far.idle)
	}
	if len(near.received) != 1 || near.received[0] != RxOK {
		t.Errorf("near outcomes %v", near.received)
	}
	if len(far.received) != 0 {
		t.Errorf("far received %v, want nothing (below delivery floor)", far.received)
	}
	if src.busy != 1 || src.idle != 1 {
		t.Errorf("src busy/idle = %d/%d, want 1/1 (own transmission)", src.busy, src.idle)
	}
}

// TestCaptureThreshold checks the capture decision directly: a strong
// frame decodes over a weak interferer, the margin can disable capture
// entirely, and a frame with no interferers always decodes.
func TestCaptureThreshold(t *testing.T) {
	g := DefaultGeometry()
	if !g.CaptureOK(phy.RateA54, -50, nil) {
		t.Error("frame with no interferers must decode")
	}
	if !g.CaptureOK(phy.RateA54, -50, []float64{-85}) {
		t.Error("35 dB SIR should capture at 54 Mbps")
	}
	if g.CaptureOK(phy.RateA54, -60, []float64{-62}) {
		t.Error("2 dB SIR should not decode 64-QAM")
	}
	noCapture := *g
	noCapture.CaptureMarginDB = math.Inf(1)
	if noCapture.CaptureOK(phy.RateA54, -50, []float64{-85}) {
		t.Error("infinite capture margin must reject any overlapped frame")
	}
}

// TestSINRThresholdOrdering: faster rates need more SINR.
func TestSINRThresholdOrdering(t *testing.T) {
	rates := []phy.Rate{phy.RateA6, phy.RateA24, phy.RateA54}
	for i := 1; i < len(rates); i++ {
		lo, hi := SINRThresholdDB(rates[i-1]), SINRThresholdDB(rates[i])
		if hi <= lo {
			t.Errorf("threshold(%v)=%.2f not above threshold(%v)=%.2f",
				rates[i], hi, rates[i-1], lo)
		}
	}
}

// TestRxPowerMonotoneDistance: received power never increases with
// distance (property over random distance pairs).
func TestRxPowerMonotoneDistance(t *testing.T) {
	g := DefaultGeometry()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		d1 := rng.Float64() * 200
		d2 := d1 + rng.Float64()*200
		if g.RxPowerDBm(d1) < g.RxPowerDBm(d2) {
			t.Fatalf("closer sender weaker: P(%.2f m)=%.2f < P(%.2f m)=%.2f",
				d1, g.RxPowerDBm(d1), d2, g.RxPowerDBm(d2))
		}
	}
}

// TestSINRMonotoneInterferers: adding an interferer never raises SINR
// (property over random interferer sets).
func TestSINRMonotoneInterferers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		sig := -90 + rng.Float64()*60
		n := rng.Intn(6)
		ints := make([]float64, n)
		for j := range ints {
			ints[j] = -100 + rng.Float64()*60
		}
		before := SINRdB(sig, ints, -90.9)
		after := SINRdB(sig, append(ints, -100+rng.Float64()*60), -90.9)
		if after > before {
			t.Fatalf("adding interferer raised SINR: %.4f -> %.4f (set %v)",
				before, after, ints)
		}
	}
}

// TestPowerMatrixSymmetry: the pairwise rx-power matrix is symmetric
// with a zero diagonal.
func TestPowerMatrixSymmetry(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = DefaultGeometry()
	rng := rand.New(rand.NewSource(3))
	radios := make([]*testRadio, 6)
	for i := range radios {
		radios[i] = &testRadio{pos: Pos{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
		m.Attach(radios[i])
	}
	m.Attach(&testRadio{pos: Pos{X: 33, Y: 44}})
	m.ensureState()
	n := len(m.powerMW)
	if n != 7 {
		t.Fatalf("matrix order %d, want 7", n)
	}
	for i := 0; i < n; i++ {
		if m.powerMW[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %g, want 0", i, i, m.powerMW[i][i])
		}
		for j := 0; j < n; j++ {
			if m.powerMW[i][j] != m.powerMW[j][i] {
				t.Errorf("asymmetry [%d][%d]=%g vs [%d][%d]=%g",
					i, j, m.powerMW[i][j], j, i, m.powerMW[j][i])
			}
			if i != j && m.powerMW[i][j] <= 0 {
				t.Errorf("off-diagonal [%d][%d] = %g, want > 0", i, j, m.powerMW[i][j])
			}
		}
	}
}

// sinrPerms3 enumerates the six orderings of three interferers.
var sinrPerms3 = [6][3]int{
	{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
}

// FuzzCapture asserts the decode decision is deterministic and
// independent of interferer order: for any signal level and interferer
// triple, every permutation yields the same CaptureOK verdict and the
// bit-identical SINR. The medium's capture rule, which compares the
// linear SINR outside a guard band around the threshold, must decide as
// the dB rule does; the seed-guard corpus entries put the SINR on
// either side of each edge of that band.
func FuzzCapture(f *testing.F) {
	f.Add(-60.0, -70.0, -75.0, -80.0, byte(1))
	f.Add(-82.0, -82.0, -82.0, -82.0, byte(5))
	f.Add(-50.0, -90.0, -55.0, -120.0, byte(3))
	f.Fuzz(func(t *testing.T, sig, i1, i2, i3 float64, perm byte) {
		for _, v := range []float64{sig, i1, i2, i3} {
			if math.IsNaN(v) || v > 30 || v < -200 {
				t.Skip("outside physical dBm range")
			}
		}
		g := DefaultGeometry()
		ints := []float64{i1, i2, i3}
		base := g.CaptureOK(phy.RateA54, sig, ints)
		baseSINR := SINRdB(sig, ints, g.NoiseDBm)
		p := sinrPerms3[int(perm)%len(sinrPerms3)]
		shuffled := []float64{ints[p[0]], ints[p[1]], ints[p[2]]}
		if got := g.CaptureOK(phy.RateA54, sig, shuffled); got != base {
			t.Fatalf("capture verdict order-dependent: %v vs %v for perm %v of %v",
				got, base, p, ints)
		}
		if got := SINRdB(sig, shuffled, g.NoiseDBm); got != baseSINR {
			t.Fatalf("SINR not bit-identical under permutation: %g vs %g", got, baseSINR)
		}
		if again := g.CaptureOK(phy.RateA54, sig, ints); again != base {
			t.Fatalf("capture verdict not deterministic: %v then %v", base, again)
		}
		sigMW, noiseMW, interfMW := phy.DBmToMilliwatts(sig), phy.DBmToMilliwatts(g.NoiseDBm), interferenceMW(ints)
		thr := SINRThresholdDB(phy.RateA54) + g.CaptureMarginDB
		rule := newCaptureRule(phy.RateA54, thr)
		if got, want := rule.captures(sigMW, noiseMW, interfMW), captures(sigMW, noiseMW, interfMW, thr); got != want {
			t.Fatalf("linear capture rule says %v, dB rule %v at SINR %g dB, threshold %g dB",
				got, want, sinrDB(sigMW, noiseMW, interfMW), thr)
		}
	})
}

// TestReachAndCouplingMatchPredicates checks the general engine's
// precomputed pair state against brute force on random layouts and
// delivery floors: each source's reach list is itself and the radios at
// or above the floor, ascending, shared by every source that reaches
// every radio, and the coupling memo agrees with the coupled-collision
// predicate both ways round, before and after the memo fills.
func TestReachAndCouplingMatchPredicates(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := DefaultGeometry()
		switch seed % 3 {
		case 1:
			g.DeliveryFloorDBm = -300 // every source reaches every radio
		case 2:
			g.DeliveryFloorDBm = -60 - 30*rng.Float64()
		}
		s := sim.NewScheduler(seed)
		m := New(s, nil)
		m.Geometry = g
		side := 20 + 180*rng.Float64()
		radios := make([]*testRadio, 2+rng.Intn(72))
		for i := range radios {
			radios[i] = &testRadio{pos: Pos{X: side * rng.Float64(), Y: side * rng.Float64()}}
			m.Attach(radios[i])
		}
		for round := 0; round < 2; round++ {
			m.Transmit(radios[rng.Intn(len(radios))], phy.RateA54, 1500, nil)
			s.Run()
			checkPairState(t, seed, m)
		}
	}
}

// checkPairState compares m's reach lists and coupling memo with their
// brute-force predicates.
func checkPairState(t *testing.T, seed int64, m *Medium) {
	t.Helper()
	n := len(m.powerMW)
	for a := 0; a < n; a++ {
		var want []int32
		for j := 0; j < n; j++ {
			if j == a || !(m.powerMW[a][j] < m.floorMW) {
				want = append(want, int32(j))
			}
		}
		if !reflect.DeepEqual(m.reach[a], want) {
			t.Fatalf("seed %d, %d radios: source %d reaches %v, want %v", seed, n, a, m.reach[a], want)
		}
		if len(want) == n && &m.reach[a][0] != &m.every[0] {
			t.Errorf("seed %d: source %d reaches every radio but has a list of its own", seed, a)
		}
		for b := 0; b < n; b++ {
			if b == a {
				continue
			}
			want := m.powerMW[a][b] >= m.floorMW
			for j := 0; j < n && !want; j++ {
				want = j != a && j != b && m.powerMW[a][j] >= m.floorMW && m.powerMW[b][j] >= m.floorMW
			}
			if m.couples(a, b) != want || m.couples(b, a) != want {
				t.Fatalf("seed %d, %d radios: couples(%d, %d) = %v, couples(%d, %d) = %v, want %v",
					seed, n, a, b, m.couples(a, b), b, a, m.couples(b, a), want)
			}
		}
	}
}

// echoRadio checks the carrier edges it gets against the medium's
// carrier history, and may transmit from inside EndRx — which the MAC
// never does — so that a Transmit falls between a finishing frame's
// sum update and its carrier edges.
type echoRadio struct {
	Port
	pos  Pos
	t    *testing.T
	m    *Medium
	rng  *rand.Rand
	busy bool // the carrier state its edges, and Listen, left it in
}

func (r *echoRadio) Position() Pos { return r.pos }
func (r *echoRadio) CarrierBusy()  { r.edge(true) }
func (r *echoRadio) CarrierIdle()  { r.edge(false) }

func (r *echoRadio) edge(busy bool) {
	c := r.m.Carrier(r.RadioIndex())
	at := c.IdleAt
	if busy {
		at = c.BusyAt
	}
	if r.busy == busy || c.Busy != busy || at != r.m.sched.Now() {
		r.t.Fatalf("radio %d: edge to busy=%v at %v, from busy=%v; carrier history %+v",
			r.RadioIndex(), busy, r.m.sched.Now(), r.busy, c)
	}
	r.busy = busy
}

func (r *echoRadio) EndRx(_ *Transmission, o Outcome) {
	if o == RxOK && r.rng.Intn(8) == 0 {
		r.m.Transmit(r, phy.RateA24, 100+r.rng.Intn(400), "echo")
	}
}

// TestCarrierEdgesFollowTheAir runs random overlapping frames on the
// spatial PHY among radios that stop and resume listening and that
// transmit from inside EndRx. After every event, each radio's carrier
// state and history must equal the state recomputed from the air, and
// a listening radio must have had exactly the edges that lead there.
func TestCarrierEdgesFollowTheAir(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler(seed)
		m := New(s, nil)
		m.Geometry = DefaultGeometry()
		radios := make([]*echoRadio, 30)
		for i := range radios {
			radios[i] = &echoRadio{pos: Pos{X: 120 * rng.Float64(), Y: 120 * rng.Float64()}, t: t, m: m, rng: rng}
			m.Attach(radios[i])
		}
		var gen func()
		gen = func() {
			i := rng.Intn(len(radios))
			switch k := rng.Intn(10); {
			case k == 0:
				m.StopListening(i)
			case k == 1:
				m.Listen(i)
				radios[i].busy = m.Carrier(i).Busy
			default:
				m.Transmit(radios[i], phy.RateA54, 100+rng.Intn(1400), nil)
			}
			s.After(sim.Duration(1+rng.Intn(300))*sim.Microsecond, gen)
		}
		s.At(0, gen)
		for s.Now() < sim.Time(200*sim.Millisecond) && s.Step() {
			if !m.built {
				continue
			}
			for j, r := range radios {
				busy := m.txOwn[j] > 0 || (len(m.active) > 0 && m.senseMW[j] >= m.csMW)
				// Edges alternate, busy first.
				if c := m.Carrier(j); c.Busy != busy || busy != (c.Edges%2 == 1) {
					t.Fatalf("seed %d at %v: radio %d has carrier history %+v; the air says busy=%v",
						seed, s.Now(), j, c, busy)
				}
				if m.listen[j>>6]&(1<<(j&63)) != 0 && r.busy != busy {
					t.Fatalf("seed %d at %v: listening radio %d was left busy=%v, the air says busy=%v", seed, s.Now(), j, r.busy, busy)
				}
			}
		}
	}
}
