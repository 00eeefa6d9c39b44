package channel

import (
	"fmt"
	"math"
	"math/rand"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// Pos is a 2-D position in metres.
type Pos struct{ X, Y float64 }

// DistanceTo returns the Euclidean distance in metres.
func (p Pos) DistanceTo(q Pos) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Outcome classifies the fate of one frame at one receiver.
type Outcome int

const (
	// RxOK means the frame decoded successfully.
	RxOK Outcome = iota
	// RxCollided means another transmission overlapped in time.
	RxCollided
	// RxCorrupted means channel noise defeated the FEC.
	RxCorrupted
)

func (o Outcome) String() string {
	switch o {
	case RxOK:
		return "ok"
	case RxCollided:
		return "collided"
	case RxCorrupted:
		return "corrupted"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Transmission describes one PPDU in flight. The medium owns the
// record: it is valid from Transmit until the transmission finishes,
// when the medium has made its deliveries and carrier edges, zeroes the
// record and keeps it for a later Transmit. So a radio reads it only
// inside EndRx, and Transmit's caller reads it before the transmission
// ends.
type Transmission struct {
	// ID numbers transmissions from 1 in transmit order; trace
	// tx_start / tx_end / collision records correlate through it.
	ID       uint64
	Source   Radio
	Rate     phy.Rate
	Length   int // PPDU payload length in bytes
	Frame    any // opaque MAC frame
	Start    sim.Time
	End      sim.Time
	collided bool

	// srcIdx is the source's radio index (its Attach order).
	srcIdx int
	// interfMax is general-engine state (see ensureState): per
	// receiver index, the worst-instant aggregate interference power
	// (mW) seen during the frame. +Inf marks a receiver that was itself
	// transmitting during an overlap (half-duplex: it can never
	// decode). A recycled record keeps the array for its next use.
	interfMax []float64
}

// Duration returns the airtime of the transmission.
func (t *Transmission) Duration() sim.Duration { return t.End - t.Start }

// Radio is the channel-facing side of a station. The medium invokes
// CarrierBusy/CarrierIdle as the carrier the radio senses turns busy
// or idle, and EndRx once per completed transmission from another
// radio that reaches it.
//
// The medium decides collisions (overlap in time); noise corruption is
// drawn by the receiver per decoded unit via Medium.Corrupted, so that
// individual MPDUs inside an A-MPDU fail independently — the property
// that makes Block ACK selective retransmission meaningful.
type Radio interface {
	// Position in metres, for path-loss models.
	Position() Pos
	// CarrierBusy is called when the medium goes busy (including the
	// radio's own transmissions).
	CarrierBusy()
	// CarrierIdle is called when the medium goes idle.
	CarrierIdle()
	// EndRx delivers a completed transmission and its outcome at this
	// radio (RxOK or RxCollided). Frames are delivered promiscuously;
	// MAC-layer address filtering is the receiver's job. tx is valid
	// only during the call: the medium recycles it once the
	// transmission finishes (see Transmission).
	EndRx(tx *Transmission, outcome Outcome)
}

// ErrorModel yields the probability that a non-collided frame is
// corrupted at a receiver. Models installed in a node.Config that is
// shared across concurrently running networks (a campaign base) must
// be safe for concurrent read; stateful models additionally implement
// ForkableErrorModel so each network gets its own instance.
type ErrorModel interface {
	LossProb(src, dst Radio, rate phy.Rate, length int) float64
}

// ForkableErrorModel is implemented by stateful error models (ones
// whose LossProb mutates internal state, like GilbertElliott's Markov
// chain). New forks such a model once per medium — the same pattern as
// the medium's own RNG fork — so one configured model instance can
// seed many concurrently running networks, each with independent,
// deterministic loss state.
type ForkableErrorModel interface {
	ErrorModel
	// ForkErrorModel returns an independent instance with fresh state,
	// drawing randomness from rng.
	ForkErrorModel(rng *rand.Rand) ErrorModel
}

// forkModel recursively forks any stateful components of model,
// calling fork only when a fork is actually needed so that stateless
// configurations consume no extra RNG draws (their event streams stay
// bit-identical to builds that predate forking).
func forkModel(model ErrorModel, fork func() *rand.Rand) (ErrorModel, bool) {
	switch v := model.(type) {
	case independent:
		out := make(independent, len(v))
		forked := false
		for i, c := range v {
			f, ok := forkModel(c, fork)
			out[i] = f
			forked = forked || ok
		}
		if forked {
			return out, true
		}
		return model, false
	case ForkableErrorModel:
		return v.ForkErrorModel(fork()), true
	}
	return model, false
}

// Medium is the broadcast channel. It is driven entirely by the
// simulation scheduler and is not safe for concurrent use.
type Medium struct {
	sched  *sim.Scheduler
	model  ErrorModel
	rng    *rand.Rand
	radios []Radio
	// radioIdx maps each attached radio to its index in radios, which
	// identifies a transmission's source.
	radioIdx map[Radio]int
	// active lists the transmissions on the air in start order, so
	// every scan over it (collision probes above all) is deterministic.
	active   []*Transmission
	finishFn func(any) // persistent Post callback for transmission ends
	// txFree holds finished, zeroed Transmission records for reuse.
	txFree []*Transmission

	// Tracer, when non-nil, receives tx_start / tx_end / collision
	// events. Assign it before the first Transmit; it observes only and
	// never perturbs the medium's RNG or event stream.
	Tracer trace.Tracer
	// staged is the next Transmit's tx_start event (see StageTx).
	staged trace.Event

	// Geometry sets the radio physics: per-pair path loss,
	// per-receiver carrier sensing and SINR capture (see doc.go). Nil
	// means one collision domain, as do DegenerateGeometry's values:
	// every radio senses and receives every frame, and any overlap
	// collides. Assign it before the first Transmit; radio positions
	// are sampled when the power matrix is built and must not move
	// afterwards.
	Geometry *Geometry

	// Engine state, built by ensureState at the first Transmit. A
	// single collision domain uses only allBusy: no power matrix,
	// carrier sums or per-radio carrier state.
	built      bool
	oneDomain  bool
	allBusy    bool        // carrier state last reported to every radio
	powerMW    [][]float64 // symmetric rx-power matrix, diagonal 0
	txOwn      []int       // in-flight transmissions per source radio
	senseBusy  []bool      // last carrier state reported to each radio
	senseMW    []float64   // summed on-air rx power at each radio
	noiseMW    float64
	csMW       float64
	floorMW    float64
	scratchSum []float64
	scratchOut []Outcome

	// Stats.
	TxCount       uint64
	CollidedTx    uint64
	CorruptedRx   uint64
	DeliveredRx   uint64
	AirtimeBusy   sim.Duration
	lastBusyStart sim.Time
}

// New creates a medium using the scheduler's clock and a forked random
// stream. A nil model means a lossless channel. Stateful error models
// (ForkableErrorModel, e.g. GilbertElliott) are forked per medium so
// the configured instance is never mutated and can be reused across
// concurrently running networks.
func New(sched *sim.Scheduler, model ErrorModel) *Medium {
	if model == nil {
		model = NoLoss{}
	}
	m := &Medium{
		sched:    sched,
		rng:      sched.ForkRand(),
		radioIdx: make(map[Radio]int),
	}
	m.finishFn = func(a any) { m.finish(a.(*Transmission)) }
	if forked, ok := forkModel(model, sched.ForkRand); ok {
		model = forked
	}
	m.model = model
	return m
}

// Attach registers a radio with the medium. Attaching the same radio
// twice panics.
func (m *Medium) Attach(r Radio) {
	if _, ok := m.radioIdx[r]; ok {
		panic(fmt.Sprintf("channel: radio %p attached twice", r))
	}
	m.radioIdx[r] = len(m.radios)
	m.radios = append(m.radios, r)
}

// Busy reports whether any transmission is in flight.
func (m *Medium) Busy() bool { return len(m.active) > 0 }

// StageTx stages the next Transmit call's tx_start event. The MAC
// fills the fields the channel layer cannot see (Src, Dst, Class,
// MPDUs, Retried, Extra) immediately before transmitting, and only
// when Tracer is set; Transmit completes the event (T, Kind, ID,
// RateKbps, Bytes, End), emits it before any collision probe for the
// same transmission, and clears the stage.
func (m *Medium) StageTx(e trace.Event) { m.staged = e }

// Transmit starts sending frame at rate; the PPDU carries length
// payload bytes. Completion (and delivery at every other radio) is
// scheduled automatically. It returns the transmission, which is valid
// only until the transmission finishes (see Transmission).
// Transmitting from a radio that never attached panics.
func (m *Medium) Transmit(src Radio, rate phy.Rate, length int, frame any) *Transmission {
	si, ok := m.radioIdx[src]
	if !ok {
		panic(fmt.Sprintf("channel: Transmit from radio %p, which is not attached to this medium", src))
	}
	now := m.sched.Now()
	var tx *Transmission
	if n := len(m.txFree); n > 0 {
		tx = m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
	} else {
		tx = &Transmission{}
	}
	tx.Source, tx.srcIdx, tx.Rate, tx.Length, tx.Frame = src, si, rate, length, frame
	tx.Start, tx.End = now, now+phy.FrameDuration(rate, length)
	m.TxCount++
	tx.ID = m.TxCount
	if m.Tracer != nil {
		e := m.staged
		m.staged = trace.Event{}
		e.T, e.Kind, e.ID = now, trace.KindTxStart, tx.ID
		e.RateKbps, e.Bytes, e.End = rate.Kbps, length, tx.End
		m.Tracer.Emit(e)
	}
	m.ensureState()
	if len(m.active) == 0 {
		m.lastBusyStart = now
	}
	if m.oneDomain {
		// Any overlap collides every involved transmission, both ways.
		// A transmission ending exactly now does not overlap (its
		// finish event may simply not have run yet at this instant).
		for _, o := range m.active {
			if o.End > now {
				m.collide(tx, o)
			}
		}
	} else {
		m.addPower(tx, now)
	}
	m.active = append(m.active, tx)
	m.updateCarrier()
	m.sched.Post(tx.End, m.finishFn, tx)
	return tx
}

// collide marks the overlapping transmissions tx and o collided,
// tracing the pair and counting each transmission once.
func (m *Medium) collide(tx, o *Transmission) {
	if m.Tracer != nil {
		m.Tracer.Emit(trace.Event{T: m.sched.Now(), Kind: trace.KindCollision, ID: tx.ID, ID2: o.ID})
	}
	m.markCollided(tx)
	m.markCollided(o)
}

// markCollided sets tx's collision mark, counting it the first time.
func (m *Medium) markCollided(tx *Transmission) {
	if !tx.collided {
		tx.collided = true
		m.CollidedTx++
	}
}

// removeActive drops tx from the on-air list, keeping start order.
func (m *Medium) removeActive(tx *Transmission) {
	for i, o := range m.active {
		if o == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			return
		}
	}
}

// finish ends tx: it decides the outcome at every receiver, makes the
// deliveries in attach order and then the carrier edges, and recycles
// the record.
func (m *Medium) finish(tx *Transmission) {
	now := m.sched.Now()
	m.ensureState()
	m.removeActive(tx)
	if len(m.active) == 0 {
		m.AirtimeBusy += now - m.lastBusyStart
	}
	// In a single collision domain every radio but the source receives
	// the frame, collided if it overlapped anything.
	all := RxOK
	if !m.oneDomain {
		m.removePower(tx)
	} else if tx.collided {
		all = RxCollided
	}
	if m.Tracer != nil {
		m.Tracer.Emit(trace.Event{T: now, Kind: trace.KindTxEnd, ID: tx.ID, Collided: tx.collided})
	}
	for j, r := range m.radios {
		if j == tx.srcIdx {
			continue
		}
		outcome := all
		if !m.oneDomain {
			if outcome = m.scratchOut[j]; outcome == rxNone {
				continue
			}
		}
		r.EndRx(tx, outcome)
	}
	// Carrier edges strictly after deliveries: receivers see the frame
	// before timers that an idle transition may restart.
	m.updateCarrier()
	*tx = Transmission{interfMax: tx.interfMax[:0]}
	m.txFree = append(m.txFree, tx)
}

// Corrupted draws whether a decode unit of length bytes from src
// fails at dst due to channel noise. Receivers call it once per MPDU
// of an A-MPDU (independent delimiter-CRC failures) and once per
// control or unaggregated frame.
func (m *Medium) Corrupted(src, dst Radio, rate phy.Rate, length int) bool {
	p := m.model.LossProb(src, dst, rate, length)
	if p > 0 && m.rng.Float64() < p {
		m.CorruptedRx++
		return true
	}
	m.DeliveredRx++
	return false
}

// NoLoss is the lossless channel.
type NoLoss struct{}

// LossProb implements ErrorModel.
func (NoLoss) LossProb(_, _ Radio, _ phy.Rate, _ int) float64 { return 0 }

// FixedLoss applies a constant frame-loss probability per directed
// link, with a default for unlisted pairs. It reproduces testbed-style
// loss asymmetry (the paper's Client 1 lost more frames than Client 2).
type FixedLoss struct {
	Default float64
	// PerLink overrides the default for a specific (src,dst) pair.
	PerLink map[[2]Radio]float64
}

// SetLink sets the loss probability for frames from src to dst.
func (f *FixedLoss) SetLink(src, dst Radio, p float64) {
	if f.PerLink == nil {
		f.PerLink = make(map[[2]Radio]float64)
	}
	f.PerLink[[2]Radio{src, dst}] = p
}

// LossProb implements ErrorModel. Most models list no links, and they
// skip the probe: a map keyed by interfaces checks its key's
// hashability on every access, even when empty.
func (f *FixedLoss) LossProb(src, dst Radio, _ phy.Rate, _ int) float64 {
	if len(f.PerLink) > 0 {
		if p, ok := f.PerLink[[2]Radio{src, dst}]; ok {
			return p
		}
	}
	return f.Default
}

// Independent composes error models as independent loss processes: a
// frame survives only if it survives every model, so the combined loss
// probability is 1-Π(1-pᵢ). With zero or one model it degenerates to
// NoLoss or the model itself.
func Independent(models ...ErrorModel) ErrorModel {
	switch len(models) {
	case 0:
		return NoLoss{}
	case 1:
		return models[0]
	}
	return independent(models)
}

type independent []ErrorModel

// LossProb implements ErrorModel.
func (ms independent) LossProb(src, dst Radio, rate phy.Rate, length int) float64 {
	survive := 1.0
	for _, m := range ms {
		survive *= 1 - m.LossProb(src, dst, rate, length)
	}
	return 1 - survive
}

// GilbertElliott is a two-state bursty loss model: the link flips
// between a good state (loss pG) and a bad state (loss pB) with the
// given per-frame transition probabilities. Used for failure-injection
// tests of HACK's repeated-Block-ACK-loss recovery (paper Figure 8)
// and as the bursty-loss scenario axis (scenario.WithBurstyLoss).
//
// The model is stateful, so a configured instance acts as a template:
// each Medium forks its own copy with fresh chain state and an RNG
// from the network's deterministic stream (ForkErrorModel), which
// makes it safe to put in a campaign base configuration. Rng may be
// left nil when the model is used through node/campaign construction;
// it is only required when calling LossProb on the instance directly.
type GilbertElliott struct {
	PGoodToBad, PBadToGood float64
	LossGood, LossBad      float64
	Rng                    *rand.Rand

	bad bool
}

// ForkErrorModel implements ForkableErrorModel: a copy with fresh
// chain state drawing from rng, leaving the template untouched.
func (g *GilbertElliott) ForkErrorModel(rng *rand.Rand) ErrorModel {
	c := *g
	c.Rng = rng
	c.bad = false
	return &c
}

// LossProb implements ErrorModel; it advances the Markov chain one
// step per queried frame.
func (g *GilbertElliott) LossProb(_, _ Radio, _ phy.Rate, _ int) float64 {
	if g.bad {
		if g.Rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else if g.Rng.Float64() < g.PGoodToBad {
		g.bad = true
	}
	if g.bad {
		return g.LossBad
	}
	return g.LossGood
}

// SNRModel computes frame loss from physics: transmit power minus
// log-distance path loss over noise, then modulation-specific AWGN BER
// with a Chernoff union bound for the convolutional code, then
// PER = 1-(1-BER)^bits.
type SNRModel struct {
	// TxPowerDBm is the transmit power (default 16 dBm).
	TxPowerDBm float64
	// RefLossDB is path loss at 1 m (≈46.7 dB at 2.4 GHz free space).
	RefLossDB float64
	// Exponent is the path-loss exponent (3.0 ≈ indoor office).
	Exponent float64
	// NoiseDBm is the receiver noise floor (thermal + noise figure;
	// ≈ -90.9 dBm for 40 MHz with a 7 dB noise figure).
	NoiseDBm float64
	// SNROverrideDB, if non-nil, bypasses geometry and fixes the SNR —
	// how the Figure 11 sweep sets its x-axis directly.
	SNROverrideDB *float64
}

// DefaultSNRModel returns parameters matching the paper's setup
// (indoor, 40 MHz 802.11n).
func DefaultSNRModel() *SNRModel {
	return &SNRModel{
		TxPowerDBm: 16,
		RefLossDB:  46.7,
		Exponent:   3.0,
		NoiseDBm:   -90.9,
	}
}

// SNRAt returns the SNR in dB for a receiver at distance metres.
func (s *SNRModel) SNRAt(distance float64) float64 {
	if s.SNROverrideDB != nil {
		return *s.SNROverrideDB
	}
	if distance < 1 {
		distance = 1
	}
	pl := s.RefLossDB + float64(10*s.Exponent*math.Log10(distance))
	return s.TxPowerDBm - pl - s.NoiseDBm
}

// DistanceForSNR inverts SNRAt: the distance at which the model yields
// the target SNR. Used to place the Figure 11 client.
func (s *SNRModel) DistanceForSNR(snrDB float64) float64 {
	pl := s.TxPowerDBm - s.NoiseDBm - snrDB
	return math.Pow(10, (pl-s.RefLossDB)/(10*s.Exponent))
}

// LossProb implements ErrorModel.
func (s *SNRModel) LossProb(src, dst Radio, rate phy.Rate, length int) float64 {
	snrDB := s.SNRAt(src.Position().DistanceTo(dst.Position()))
	return FrameErrorRate(rate, snrDB, length)
}

// FindSNRModel walks an error model (descending into Independent
// compositions) and returns the first SNRModel found, or nil. Rate
// adapters use it to give the IdealSNR oracle the channel's actual
// SNR→error tables without perturbing stateful sibling models.
func FindSNRModel(em ErrorModel) *SNRModel {
	switch v := em.(type) {
	case *SNRModel:
		return v
	case independent:
		for _, c := range v {
			if s := FindSNRModel(c); s != nil {
				return s
			}
		}
	}
	return nil
}

// FrameErrorRate returns the probability that a frame of length bytes
// at the given rate fails to decode at the given SNR (dB).
func FrameErrorRate(rate phy.Rate, snrDB float64, length int) float64 {
	ber := CodedBER(rate, snrDB)
	bits := float64(8 * length)
	// 1-(1-ber)^bits, computed stably.
	per := 1 - math.Exp(bits*math.Log1p(-ber))
	if per < 0 {
		return 0
	}
	if per > 1 {
		return 1
	}
	return per
}

// uncodedBER returns the raw channel bit error rate for a modulation
// at symbol SNR γ (linear). Standard AWGN Gray-coded expressions:
// BPSK ½erfc(√γ); QPSK ½erfc(√(γ/2)); 16-QAM ⅜erfc(√(γ/10));
// 64-QAM (7/24)erfc(√(γ/42)).
func uncodedBER(mod phy.Modulation, snrLin float64) float64 {
	switch mod {
	case phy.BPSK:
		return 0.5 * math.Erfc(math.Sqrt(snrLin))
	case phy.QPSK:
		return 0.5 * math.Erfc(math.Sqrt(snrLin/2))
	case phy.QAM16:
		return 0.375 * math.Erfc(math.Sqrt(snrLin/10))
	case phy.QAM64:
		return 7.0 / 24.0 * math.Erfc(math.Sqrt(snrLin/42))
	}
	panic("channel: unknown modulation")
}

// Distance spectra (first five terms) of the industry-standard K=7
// convolutional code and its punctured variants, used in the Chernoff
// union bound. Index 0 corresponds to the free distance.
var codeSpectra = map[phy.CodeRate]struct {
	dfree int
	ad    [5]float64
	step  int // distance increment between terms (2 for rate 1/2)
}{
	phy.R12: {dfree: 10, ad: [5]float64{36, 211, 1404, 11633, 77433}, step: 2},
	phy.R23: {dfree: 6, ad: [5]float64{3, 70, 285, 1276, 6160}, step: 1},
	phy.R34: {dfree: 5, ad: [5]float64{42, 201, 1492, 10469, 62935}, step: 1},
	phy.R56: {dfree: 4, ad: [5]float64{92, 528, 8694, 79453, 792114}, step: 1},
}

// CodedBER estimates the post-Viterbi bit error rate at snrDB for the
// rate's modulation and code, via the Chernoff parameter
// D = √(4p(1-p)) over the raw BER p (NIST error-model style).
func CodedBER(rate phy.Rate, snrDB float64) float64 {
	snrLin := math.Pow(10, snrDB/10)
	p := uncodedBER(rate.Mod, snrLin)
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	spec, ok := codeSpectra[rate.Code]
	if !ok {
		panic(fmt.Sprintf("channel: no spectrum for code rate %v", rate.Code))
	}
	d := math.Sqrt(4 * p * (1 - p))
	var pe float64
	for i, a := range spec.ad {
		pe += float64(a * math.Pow(d, float64(spec.dfree+i*spec.step)))
	}
	pe /= float64(2 * spec.step)
	if pe > 0.5 {
		return 0.5
	}
	return pe
}
