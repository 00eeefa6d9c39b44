package channel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// testRadio records channel callbacks.
type testRadio struct {
	Port
	pos      Pos
	busy     int
	idle     int
	received []Outcome
	frames   []any
}

func (r *testRadio) Position() Pos { return r.pos }
func (r *testRadio) CarrierBusy()  { r.busy++ }
func (r *testRadio) CarrierIdle()  { r.idle++ }
func (r *testRadio) EndRx(tx *Transmission, o Outcome) {
	r.received = append(r.received, o)
	r.frames = append(r.frames, tx.Frame)
}

func newTestMedium(model ErrorModel) (*sim.Scheduler, *Medium, *testRadio, *testRadio) {
	s := sim.NewScheduler(1)
	m := New(s, model)
	a := &testRadio{}
	b := &testRadio{pos: Pos{X: 5}}
	m.Attach(a)
	m.Attach(b)
	return s, m, a, b
}

func TestDeliverySingleTx(t *testing.T) {
	s, m, a, b := newTestMedium(nil)
	m.Transmit(a, phy.RateA54, 1500, "hello")
	s.Run()
	if len(b.received) != 1 || b.received[0] != RxOK {
		t.Fatalf("b received %v", b.received)
	}
	if b.frames[0] != "hello" {
		t.Errorf("frame = %v", b.frames[0])
	}
	if len(a.received) != 0 {
		t.Error("sender received its own frame")
	}
	if b.busy != 1 || b.idle != 1 {
		t.Errorf("busy/idle = %d/%d, want 1/1", b.busy, b.idle)
	}
	if m.TxCount != 1 {
		t.Errorf("TxCount = %d", m.TxCount)
	}
}

func TestDeliveryTiming(t *testing.T) {
	s, m, a, b := newTestMedium(nil)
	var deliveredAt sim.Time
	s.At(0, func() { m.Transmit(a, phy.RateA24, 14, "ack") })
	s.Run()
	_ = b
	deliveredAt = s.Now()
	if want := phy.FrameDuration(phy.RateA24, 14); deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestCollisionBothLost(t *testing.T) {
	s, m, a, b := newTestMedium(nil)
	c := &testRadio{pos: Pos{Y: 3}}
	m.Attach(c)
	// a and b transmit overlapping frames; c must see both as collided.
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, "A") })
	s.At(10*sim.Microsecond, func() { m.Transmit(b, phy.RateA54, 1500, "B") })
	s.Run()
	if len(c.received) != 2 {
		t.Fatalf("c received %d frames", len(c.received))
	}
	for i, o := range c.received {
		if o != RxCollided {
			t.Errorf("frame %d outcome %v, want collided", i, o)
		}
	}
	// a hears b's frame (collided), b hears a's.
	if a.received[0] != RxCollided || b.received[0] != RxCollided {
		t.Error("transmitters did not observe collision")
	}
	if m.CollidedTx != 2 {
		t.Errorf("CollidedTx = %d, want 2", m.CollidedTx)
	}
}

func TestNonOverlappingNoCollision(t *testing.T) {
	s, m, a, b := newTestMedium(nil)
	d := phy.FrameDuration(phy.RateA54, 1500)
	s.At(0, func() { m.Transmit(a, phy.RateA54, 1500, 1) })
	s.At(d+sim.Microsecond, func() { m.Transmit(a, phy.RateA54, 1500, 2) }) // gap, no overlap
	s.Run()
	if len(b.received) != 2 {
		t.Fatalf("received %d", len(b.received))
	}
	for _, o := range b.received {
		if o != RxOK {
			t.Errorf("outcome %v", o)
		}
	}
	if b.busy != 2 || b.idle != 2 {
		t.Errorf("busy/idle = %d/%d", b.busy, b.idle)
	}
}

// TestUnattachedRadioPanics: a transmission from a radio that never
// attached, or a second Attach of the same radio, is a caller bug.
// Both engines refuse it loudly rather than fall back to radio 0's
// index (its power row, half-duplex mark and delivery skip).
func TestUnattachedRadioPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		geom *Geometry
	}{{"scalar", nil}, {"spatial", DefaultGeometry()}} {
		t.Run(tc.name, func(t *testing.T) {
			_, m, a, _ := newTestMedium(nil)
			m.Geometry = tc.geom
			stranger := &testRadio{pos: Pos{Y: 3}}
			mustPanic(t, "Transmit from an unattached radio", func() {
				m.Transmit(stranger, phy.RateA54, 1500, "x")
			})
			mustPanic(t, "second Attach of a radio", func() { m.Attach(a) })
			if m.TxCount != 0 || m.Busy() {
				t.Errorf("refused transmission left state behind: TxCount %d, busy %v", m.TxCount, m.Busy())
			}
		})
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestThreeWayCollision(t *testing.T) {
	s, m, a, b := newTestMedium(nil)
	c := &testRadio{}
	m.Attach(c)
	s.At(0, func() { m.Transmit(a, phy.RateA6, 100, nil) })
	s.At(sim.Microsecond, func() { m.Transmit(b, phy.RateA6, 100, nil) })
	s.At(2*sim.Microsecond, func() { m.Transmit(c, phy.RateA6, 100, nil) })
	s.Run()
	if m.CollidedTx != 3 {
		t.Errorf("CollidedTx = %d, want 3", m.CollidedTx)
	}
}

func TestBusyTracking(t *testing.T) {
	s, m, a, _ := newTestMedium(nil)
	if m.Busy() {
		t.Error("medium busy at start")
	}
	s.At(0, func() {
		m.Transmit(a, phy.RateA6, 1000, nil)
		if !m.Busy() {
			t.Error("medium idle during tx")
		}
	})
	s.Run()
	if m.Busy() {
		t.Error("medium busy after tx")
	}
	if m.AirtimeBusy != phy.FrameDuration(phy.RateA6, 1000) {
		t.Errorf("airtime = %v", m.AirtimeBusy)
	}
}

func TestFixedLoss(t *testing.T) {
	model := &FixedLoss{Default: 1.0}
	_, m, a, b := newTestMedium(model)
	if !m.Corrupted(a, b, phy.RateA54, 1500) {
		t.Error("loss 1.0 did not corrupt")
	}
	// Per-link override: lossless a→b.
	model.SetLink(a, b, 0)
	if m.Corrupted(a, b, phy.RateA54, 1500) {
		t.Error("per-link 0 corrupted")
	}
	if got := model.LossProb(b, a, phy.RateA54, 10); got != 1.0 {
		t.Errorf("reverse link loss = %v, want default", got)
	}
	if m.CorruptedRx != 1 || m.DeliveredRx != 1 {
		t.Errorf("counters %d/%d, want 1/1", m.CorruptedRx, m.DeliveredRx)
	}
}

func TestFixedLossStatistics(t *testing.T) {
	model := &FixedLoss{Default: 0.3}
	_, m, a, b := newTestMedium(model)
	n := 5000
	lost := 0
	for i := 0; i < n; i++ {
		if m.Corrupted(a, b, phy.RateA54, 100) {
			lost++
		}
	}
	frac := float64(lost) / float64(n)
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("observed loss %.3f, want ≈0.30", frac)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	g := &GilbertElliott{
		PGoodToBad: 0.05, PBadToGood: 0.2,
		LossGood: 0.0, LossBad: 1.0,
		Rng: rand.New(rand.NewSource(7)),
	}
	// Drive the chain and check it visits both states and produces
	// runs (burstiness): expected bad fraction = 0.05/(0.05+0.2) = 0.2.
	bad := 0
	n := 10000
	for i := 0; i < n; i++ {
		if g.LossProb(nil, nil, phy.RateA6, 0) > 0.5 {
			bad++
		}
	}
	frac := float64(bad) / float64(n)
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("bad-state fraction %.3f, want ≈0.2", frac)
	}
}

// TestGilbertElliottForkPerMedium: a configured GilbertElliott acts as
// a template — each medium forks its own copy (fresh chain state, RNG
// from the network's deterministic stream), so the template is never
// mutated and identical schedulers observe identical loss processes.
func TestGilbertElliottForkPerMedium(t *testing.T) {
	tmpl := &GilbertElliott{
		PGoodToBad: 0.05, PBadToGood: 0.2,
		LossGood: 0.0, LossBad: 1.0,
	}
	drive := func() []bool {
		sched := sim.NewScheduler(42)
		m := New(sched, tmpl)
		a, b := &testRadio{}, &testRadio{pos: Pos{X: 5}}
		m.Attach(a)
		m.Attach(b)
		out := make([]bool, 2000)
		for i := range out {
			out[i] = m.Corrupted(a, b, phy.RateA54, 1500)
		}
		return out
	}
	first := drive()
	second := drive()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("equal-seed media observed different bursty loss processes")
	}
	if tmpl.Rng != nil || tmpl.bad {
		t.Errorf("template mutated: rng=%v bad=%v", tmpl.Rng, tmpl.bad)
	}
	lost := 0
	for _, l := range first {
		if l {
			lost++
		}
	}
	if lost == 0 || lost == len(first) {
		t.Errorf("forked chain inert: %d/%d lost", lost, len(first))
	}
}

// TestIndependentForksStatefulComponents: forking must reach stateful
// models nested inside Independent compositions without disturbing the
// stateless siblings.
func TestIndependentForksStatefulComponents(t *testing.T) {
	ge := &GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.2, LossBad: 1.0}
	fixed := &FixedLoss{Default: 0.1}
	comp := Independent(fixed, ge)
	forked, ok := forkModel(comp, func() *rand.Rand { return rand.New(rand.NewSource(9)) })
	if !ok {
		t.Fatal("composite with a stateful component reported nothing to fork")
	}
	fc, isComp := forked.(independent)
	if !isComp || len(fc) != 2 {
		t.Fatalf("fork changed composition shape: %T", forked)
	}
	if fc[0] != ErrorModel(fixed) {
		t.Error("stateless component was not shared as-is")
	}
	if fc[1] == ErrorModel(ge) {
		t.Error("stateful component was not forked")
	}
	if _, ok := forkModel(Independent(fixed, &SNRModel{}), func() *rand.Rand {
		t.Fatal("stateless composite consumed an RNG fork")
		return nil
	}); ok {
		t.Error("stateless composite reported a fork")
	}
}

// TestFindSNRModel locates the SNR model inside compositions.
func TestFindSNRModel(t *testing.T) {
	snr := DefaultSNRModel()
	if FindSNRModel(snr) != snr {
		t.Error("direct SNRModel not found")
	}
	if FindSNRModel(Independent(&FixedLoss{Default: 0.1}, snr)) != snr {
		t.Error("composed SNRModel not found")
	}
	if FindSNRModel(&FixedLoss{}) != nil || FindSNRModel(nil) != nil {
		t.Error("phantom SNRModel found")
	}
}

func TestCodedBERMonotoneInSNR(t *testing.T) {
	for _, r := range phy.RatesA {
		prev := math.Inf(1)
		for snr := -5.0; snr <= 40; snr += 0.5 {
			b := CodedBER(r, snr)
			if b > prev+1e-15 {
				t.Fatalf("%v: BER not monotone at %.1f dB (%g > %g)", r, snr, b, prev)
			}
			prev = b
		}
	}
}

func TestFasterRatesNeedMoreSNR(t *testing.T) {
	// At a mid SNR, higher rates must have ≥ BER of lower rates — with
	// the one well-known real-world inversion: 9 Mbps (BPSK 3/4) is
	// weaker than 12 Mbps (QPSK 1/2), which is why 9 Mbps is rarely
	// used in practice. The model reproduces that, so skip the 9→12
	// pair.
	for _, snr := range []float64{5, 10, 15, 20, 25} {
		for i := 0; i+1 < len(phy.RatesA); i++ {
			if phy.RatesA[i].Kbps == 9000 {
				continue
			}
			lo := CodedBER(phy.RatesA[i], snr)
			hi := CodedBER(phy.RatesA[i+1], snr)
			if hi < lo-1e-12 {
				t.Errorf("at %v dB, %v BER (%g) < %v BER (%g)",
					snr, phy.RatesA[i+1], hi, phy.RatesA[i], lo)
			}
		}
	}
	// And the documented inversion really holds (it is a property of
	// the code spectra, not a bug).
	if CodedBER(phy.RateA9, 8) < CodedBER(phy.RateA12, 8) {
		t.Error("expected BPSK 3/4 to be weaker than QPSK 1/2 at 8 dB")
	}
}

func TestFrameErrorRateWaterfalls(t *testing.T) {
	// Rough operating points for 1500-byte frames: BPSK 1/2 usable by
	// ~6 dB; 64-QAM 3/4 not usable at 15 dB, usable by ~27 dB.
	if per := FrameErrorRate(phy.RateA6, 6, 1500); per > 0.05 {
		t.Errorf("6 Mbps @6dB PER = %.3f, want <0.05", per)
	}
	if per := FrameErrorRate(phy.RateA6, 0, 1500); per < 0.5 {
		t.Errorf("6 Mbps @0dB PER = %.3f, want >0.5", per)
	}
	if per := FrameErrorRate(phy.RateA54, 15, 1500); per < 0.9 {
		t.Errorf("54 Mbps @15dB PER = %.3f, want ≈1", per)
	}
	if per := FrameErrorRate(phy.RateA54, 27, 1500); per > 0.05 {
		t.Errorf("54 Mbps @27dB PER = %.3f, want <0.05", per)
	}
	// HT MCS7 (64-QAM 5/6) needs slightly more than MCS6.
	mcs7, mcs6 := phy.HTRate(7, 1), phy.HTRate(6, 1)
	if FrameErrorRate(mcs7, 26, 1500) < FrameErrorRate(mcs6, 26, 1500)-1e-9 {
		t.Error("MCS7 easier than MCS6 at 26 dB")
	}
	// Longer frames fail more.
	if FrameErrorRate(phy.RateA24, 14, 64) > FrameErrorRate(phy.RateA24, 14, 1500) {
		t.Error("short frame PER exceeds long frame PER")
	}
	// Extremes clamp.
	if FrameErrorRate(phy.RateA54, -20, 1500) != 1 {
		t.Error("PER at -20 dB should clamp to 1 (BER 0.5 regime)")
	}
	if FrameErrorRate(phy.RateA6, 60, 1500) != 0 {
		t.Error("PER at 60 dB should be 0")
	}
}

func TestSNRModelGeometry(t *testing.T) {
	mdl := DefaultSNRModel()
	// SNR decreases with distance.
	if mdl.SNRAt(1) <= mdl.SNRAt(10) {
		t.Error("SNR not decreasing with distance")
	}
	// DistanceForSNR inverts SNRAt.
	for _, snr := range []float64{5, 15, 25} {
		d := mdl.DistanceForSNR(snr)
		if got := mdl.SNRAt(d); math.Abs(got-snr) > 0.01 {
			t.Errorf("roundtrip SNR %v → d=%.2f → %v", snr, d, got)
		}
	}
	// Sub-metre clamps to 1 m.
	if mdl.SNRAt(0.1) != mdl.SNRAt(1) {
		t.Error("sub-metre distance not clamped")
	}
	// Override pins the SNR.
	snr := 12.5
	mdl.SNROverrideDB = &snr
	if mdl.SNRAt(1000) != 12.5 {
		t.Error("override ignored")
	}
}

func TestSNRModelAsErrorModel(t *testing.T) {
	mdl := DefaultSNRModel()
	s := sim.NewScheduler(1)
	m := New(s, mdl)
	a := &testRadio{}
	// ~3 m: strong signal at 6 Mbps.
	b := &testRadio{pos: Pos{X: 3}}
	m.Attach(a)
	m.Attach(b)
	ok := 0
	for i := 0; i < 100; i++ {
		if !m.Corrupted(a, b, phy.RateA6, 1500) {
			ok++
		}
	}
	if ok < 95 {
		t.Errorf("only %d/100 frames delivered at 3 m / 6 Mbps", ok)
	}
	// At 60 m the paper-style office model should be mostly dead for
	// 54 Mbps frames.
	c := &testRadio{pos: Pos{X: 60}}
	m.Attach(c)
	ok = 0
	for i := 0; i < 100; i++ {
		if !m.Corrupted(a, c, phy.RateA54, 1500) {
			ok++
		}
	}
	if ok > 20 {
		t.Errorf("%d/100 54 Mbps frames delivered at 60 m; model too generous", ok)
	}
}

func TestOutcomeString(t *testing.T) {
	if RxOK.String() != "ok" || RxCollided.String() != "collided" || RxCorrupted.String() != "corrupted" {
		t.Error("outcome strings wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome empty")
	}
}

func TestPosDistance(t *testing.T) {
	if d := (Pos{0, 0}).DistanceTo(Pos{3, 4}); d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
}

func BenchmarkFrameErrorRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FrameErrorRate(phy.RateA54, 22.5, 1500)
	}
}

func TestIndependentComposition(t *testing.T) {
	a := &FixedLoss{Default: 0.1}
	b := &FixedLoss{Default: 0.2}
	got := Independent(a, b).LossProb(nil, nil, phy.RateA54, 1500)
	want := 1 - 0.9*0.8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("combined loss = %v, want %v", got, want)
	}
	if p := Independent(a).LossProb(nil, nil, phy.RateA54, 1500); p != 0.1 {
		t.Errorf("single-model Independent = %v, want 0.1", p)
	}
	if p := Independent().LossProb(nil, nil, phy.RateA54, 1500); p != 0 {
		t.Errorf("empty Independent = %v, want 0 (NoLoss)", p)
	}
}

// TestCollisionProbesDeterministic: three overlapping transmissions in
// one collision domain must emit their Collision probes in one order on
// every run, so JSONL traces are byte-reproducible. The third
// transmission overlaps two others; scanning an unordered set would
// emit its two probes in either order.
func TestCollisionProbesDeterministic(t *testing.T) {
	collisions := func() []trace.Event {
		s := sim.NewScheduler(1)
		m := New(s, nil)
		rec := trace.NewRecorder(0)
		m.Tracer = rec
		radios := make([]*testRadio, 3)
		for i := range radios {
			radios[i] = &testRadio{pos: Pos{X: float64(i)}}
			m.Attach(radios[i])
		}
		for _, r := range radios {
			m.Transmit(r, phy.RateA54, 1500, nil)
		}
		s.Run()
		var out []trace.Event
		for _, e := range rec.Events() {
			if e.Kind == trace.KindCollision {
				out = append(out, e)
			}
		}
		return out
	}
	first := collisions()
	if len(first) != 3 {
		t.Fatalf("%d collision probes, want 3", len(first))
	}
	for run := 1; run < 20; run++ {
		if got := collisions(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: collision probes %+v, want %+v", run, got, first)
		}
	}
}

// countingOverhearer records the outcomes reported to it.
type countingOverhearer struct{ outcomes []Outcome }

func (o *countingOverhearer) Overhear(_ *Transmission, outcome Outcome) {
	o.outcomes = append(o.outcomes, outcome)
}

// TestDeafRadiosGetNoCallbacks attaches 1000 radios, of which 999 stop
// listening, and runs frames past them, one pair of them colliding:
// the 999 get no callback at all, the Overhearer hears every frame
// once, the carrier history counts every edge, and a radio that
// listens again gets the next frame's callbacks.
func TestDeafRadiosGetNoCallbacks(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	radios := make([]*testRadio, 1000)
	for i := range radios {
		radios[i] = &testRadio{}
		m.Attach(radios[i])
	}
	if m.StopListening(1) {
		t.Fatal("StopListening without an Overhearer stopped deliveries")
	}
	o := &countingOverhearer{}
	m.Overhearer = o
	for i := 1; i < len(radios); i++ {
		if !m.StopListening(i) {
			t.Fatalf("StopListening(%d) refused in a single collision domain", i)
		}
	}
	const frames = 20
	for k := 0; k < frames; k++ {
		s.At(sim.Time(k)*sim.Millisecond, func() { m.Transmit(radios[0], phy.RateA54, 1500, k) })
	}
	// A deaf radio may still transmit: this one collides with frame 5.
	s.At(5*sim.Millisecond+sim.Microsecond, func() { m.Transmit(radios[500], phy.RateA54, 1500, "x") })
	s.Run()
	for i, r := range radios[1:] {
		if r.busy != 0 || r.idle != 0 || len(r.received) != 0 {
			t.Fatalf("radio %d does not listen but got %d busy, %d idle edges and %d frames", i+1, r.busy, r.idle, len(r.received))
		}
	}
	if r := radios[0]; r.busy != frames || r.idle != frames || len(r.received) != 1 || r.received[0] != RxCollided {
		t.Errorf("listening radio 0: %d busy, %d idle edges, received %v; want %d, %d, [collided]", r.busy, r.idle, r.received, frames, frames)
	}
	collided := 0
	for _, oc := range o.outcomes {
		if oc == RxCollided {
			collided++
		}
	}
	if len(o.outcomes) != frames+1 || collided != 2 {
		t.Errorf("Overhearer heard %d frames, %d collided; want %d, 2", len(o.outcomes), collided, frames+1)
	}
	if c := m.Carrier(0); c.Busy || c.Edges != 2*frames || c.BusyAt != 19*sim.Millisecond {
		t.Errorf("carrier history %+v, want idle after %d edges, last busy at 19 ms", c, 2*frames)
	}
	m.Listen(999)
	m.Transmit(radios[0], phy.RateA54, 1500, "again")
	s.Run()
	if r := radios[999]; r.busy != 1 || r.idle != 1 || len(r.received) != 1 {
		t.Errorf("radio 999 listens again but got %d busy, %d idle edges and %d frames; want 1 each", r.busy, r.idle, len(r.received))
	}
	if len(o.outcomes) != frames+2 {
		t.Errorf("Overhearer heard %d frames, want %d", len(o.outcomes), frames+2)
	}
}

// TestGeneralEngineKeepsListening: outcomes differ per receiver under
// a spatial geometry, so a radio that stops listening there keeps its
// deliveries, even with an Overhearer set, and takes no carrier edges.
func TestGeneralEngineKeepsListening(t *testing.T) {
	s, m, a, b := newTestMedium(nil)
	m.Geometry = DefaultGeometry()
	m.Overhearer = &countingOverhearer{}
	if m.StopListening(1) {
		t.Error("StopListening stopped deliveries under a spatial geometry")
	}
	m.Transmit(a, phy.RateA54, 1500, "x")
	s.Run()
	if len(b.received) != 1 || b.busy != 0 || b.idle != 0 {
		t.Errorf("radio 1 got %d frames and %d/%d busy/idle edges, want 1 and none", len(b.received), b.busy, b.idle)
	}
	if c := m.Carrier(1); c.Edges != 2 || c.Busy {
		t.Errorf("radio 1's carrier history %+v, want two edges, idle", c)
	}
}

// Busy reports whether any transmission is in flight.
func (m *Medium) Busy() bool { return len(m.active) > 0 }

// DistanceForSNR inverts SNRAt: the distance at which the model yields
// the target SNR. Used to place the Figure 11 client.
func (s *SNRModel) DistanceForSNR(snrDB float64) float64 {
	pl := s.TxPowerDBm - s.NoiseDBm - snrDB
	return math.Pow(10, (pl-s.RefLossDB)/(10*s.Exponent))
}

// TestAttachAfterTransmitPanics: the radio set is fixed at the first
// Transmit, on both engines. Attach panics with that rule once the
// medium has transmitted, and a radio attached while a frame is on the
// air stops there, before it can transmit: the general engine keeps
// interference entries only for the radios present at its first
// Transmit, so such a radio's frame used to index past them.
func TestAttachAfterTransmitPanics(t *testing.T) {
	for _, geo := range []*Geometry{nil, DefaultGeometry()} {
		for _, midFrame := range []bool{false, true} {
			s, m, a, _ := newTestMedium(nil)
			m.Geometry = geo
			m.Transmit(a, phy.RateA54, 1500, nil)
			if !midFrame {
				s.Run()
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				late := &testRadio{pos: Pos{X: 2}}
				m.Attach(late)
				m.Transmit(late, phy.RateA54, 1500, nil)
				s.Run()
				return ""
			}()
			if !strings.Contains(msg, "Attach after the first Transmit") {
				t.Errorf("geometry %v, frame on the air %v: got panic %q, want Attach's fixed-radio-set rule",
					geo != nil, midFrame, msg)
			}
		}
	}
}
