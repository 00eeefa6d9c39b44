package mac

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"tcphack/internal/channel"
	"tcphack/internal/phy"
)

// RateAdapter selects the PHY rate for data frames, per destination,
// and learns from transmission outcomes. Four strategies are built in
// (ParseAdapterSpec's vocabulary, scenario.WithRateAdapter's axis):
//
//	adapter   selection rule                    loss regime it targets           determinism
//	───────   ───────────────────────────────   ──────────────────────────────   ─────────────────────────
//	fixed     pin one configured rate           none: the paper's per-           stateless; no RNG
//	          (FixedRate)                       experiment methodology — the
//	                                            experiment chooses the regime
//	ideal     highest rate with FER ≤ 1e-3      negligible loss only: steps      oracle; one rate per
//	          per MPDU, from the channel's      down a rate rather than ever     network, chosen when it
//	          SNR→FER tables (IdealRate, ns-3   operate lossy (ns-3's rule,      is built and pinned with
//	          IdealWifiManager style)           and the historic workaround      FixedRate; no RNG
//	                                            for the MORE-DATA collapse)
//	argmax    argmax over rate of               deliberate ~1% per-MPDU FER      oracle; one rate per
//	          rate × (1−FER)^batch              when the rate step pays for      network, chosen when it
//	          (ArgmaxRate)                      it: requires the loss-           is built and pinned with
//	                                            resilient HACK recovery          FixedRate; no RNG
//	                                            (internal/hack state machine)
//	minstrel  EWMA per-rate delivery probs,     any: learns the live loss        probe schedule drawn from
//	          throughput ranking, periodic      process from MPDU outcomes       an RNG forked off the
//	          probes, reliable fallback         instead of assuming a model      station's scheduler; a
//	          (Minstrel, mac80211 style)                                         fixed seed fixes decisions
//
// The MAC calls RateFor once per data PPDU and OnTxResult once per
// MPDU resolution (delivered, or scheduled for retry/drop), so an
// A-MPDU of k MPDUs produces one RateFor call and k OnTxResult calls.
// Implementations must be deterministic: any randomness must come from
// an RNG forked off the owning station's scheduler, never from global
// sources. An adapter that learns, like Minstrel, holds per-station
// state: it is not safe for concurrent use and must not be shared
// between stations or networks, so campaigns get one instance per
// station per network, exactly like the medium's forked RNG.
type RateAdapter interface {
	// RateFor returns the PHY rate for the next data frame to dst.
	RateFor(dst Addr) phy.Rate
	// OnTxResult reports the fate of one MPDU sent to dst at rate:
	// ok is true when a (Block) ACK confirmed delivery, false when the
	// attempt failed (timeout or unacknowledged in a Block ACK).
	OnTxResult(dst Addr, rate phy.Rate, ok bool)
}

// FixedRate pins every transmission to one rate — the seed behavior,
// and the paper's per-experiment fixed-rate methodology.
type FixedRate struct {
	Rate phy.Rate
}

// RateFor implements RateAdapter.
func (f FixedRate) RateFor(Addr) phy.Rate { return f.Rate }

// OnTxResult implements RateAdapter.
func (FixedRate) OnTxResult(Addr, phy.Rate, bool) {}

// The oracles evaluate each rate's frame error rate at a 1538-byte
// MPDU, an MSS-sized TCP segment on the air; IdealRate treats a
// per-MPDU FER of at most 1e-3 as negligible.
const (
	oracleRefLen   = 1538
	idealTargetFER = 1e-3
)

// IdealRate is the threshold oracle ("ideal"): from the channel's
// SNR→error tables it picks, among rates (in increasing-rate order),
// the highest whose frame error rate at snrDB is negligible — at most
// 1e-3 per 1538-byte MPDU, the threshold strategy of ns-3's
// IdealWifiManager. When no rate qualifies (deep in the low-SNR
// regime) it falls back to maximizing expected per-MPDU goodput
// rate × (1 − FER). It replaces the Figure 11 trick of sweeping every
// fixed rate and taking the per-SNR envelope: one simulation per SNR
// point instead of one per (rate, SNR) cell.
//
// The threshold, rather than an expected-goodput argmax across the
// board, matters: a rate with a "small" per-MPDU FER still loses an
// MPDU in most A-MPDUs once ~50 are aggregated, and the protocol-level
// cost of those losses (Block ACK recovery, TCP dynamics) exceeds the
// raw 1 − FER factor.
func IdealRate(rates []phy.Rate, snrDB float64) phy.Rate {
	fallback, fallbackScore := rates[0], -1.0
	for i := len(rates) - 1; i >= 0; i-- {
		r := rates[i]
		fer := channel.FrameErrorRate(r, snrDB, oracleRefLen)
		if fer <= idealTargetFER {
			return r // highest qualifying rate: candidates are ordered
		}
		if score := r.Mbps() * (1 - fer); score > fallbackScore {
			fallback, fallbackScore = r, score
		}
	}
	return fallback
}

// ArgmaxRate is the expected-goodput argmax oracle ("argmax"): it
// knows the channel's SNR like IdealRate but, instead of thresholding
// on a negligible FER, picks among rates the one maximizing
//
//	rate × (1 − FER(snrDB, rate, 1538 B))^batch
//
// — the expected goodput of a whole link-layer batch. batch models the
// protocol-level cost of a loss anywhere in an A-MPDU (Block ACK
// recovery, retransmission airtime, TCP dynamics): with batch 64 (the
// Block ACK window, BAWindowSize) a per-MPDU FER of 1% costs the whole
// batch a factor (0.99)^64 ≈ 0.53, which is what pushes the argmax
// away from marginal rates that the raw per-MPDU expectation (batch 1)
// would still favor.
//
// This is the rule the IdealRate threshold deliberately stood in for
// while HACK's recovery collapsed in the ~1% per-MPDU FER regime: the
// argmax intentionally operates there, so it requires the
// loss-resilient recovery machine (internal/hack) to be worth running.
func ArgmaxRate(rates []phy.Rate, snrDB float64, batch int) phy.Rate {
	best, bestScore := rates[0], -1.0
	for _, r := range rates {
		fer := channel.FrameErrorRate(r, snrDB, oracleRefLen)
		score := r.Mbps() * math.Pow(1-fer, float64(batch))
		if score > bestScore {
			best, bestScore = r, score
		}
	}
	return best
}

// MinstrelConfig parameterizes a Minstrel adapter. Zero fields take
// the defaults noted on each field. All intervals are counted in data
// frames (RateFor calls), so behavior is independent of A-MPDU size.
type MinstrelConfig struct {
	// Rates is the candidate set in increasing-rate order
	// (phy.RateFamily builds the usual ones).
	Rates []phy.Rate
	// SampleEvery makes every Nth data frame a probe at a random
	// non-best rate (default 16). A rate slower than the current best
	// is probed only if it has not been sampled in the last 128 frames.
	SampleEvery int
}

// Minstrel's fixed parameters, counted in data frames like
// MinstrelConfig's.
const (
	// minstrelEWMAWeight is the weight of the newest sampling window
	// in the per-rate success-probability EWMA.
	minstrelEWMAWeight = 0.25
	// minstrelUpdateEvery recomputes the per-rate statistics every N
	// data frames.
	minstrelUpdateEvery = 25
	// minstrelStaleAfter throttles probes slower than the current best
	// rate: such a rate is probed only if it has not been sampled in
	// the last N frames. This bounds the airtime spent probing rates
	// that cannot win, the trick that keeps Minstrel within a few
	// percent of the fixed-best-rate envelope.
	minstrelStaleAfter = 128
	// minstrelFallbackAfter switches to the most reliable known rate
	// after N consecutive failed MPDU results until a success — the
	// frame-by-frame approximation of Minstrel's throughput-ordered
	// retry chain.
	minstrelFallbackAfter = 8
)

func (c MinstrelConfig) withDefaults() MinstrelConfig {
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	return c
}

// minstrelRate is one candidate rate's statistics for one destination.
type minstrelRate struct {
	attempts  uint64 // current window
	successes uint64
	tried     bool
	prob      float64 // EWMA delivery probability
	tput      float64 // prob × Kbps, the ranking metric
	sampledAt uint64  // frame counter at the last probe of this rate

	// Lifetime totals, for introspection (RateStats).
	totalAttempts  uint64
	totalSuccesses uint64
}

// minstrelDst is the per-destination adapter state.
type minstrelDst struct {
	rates       []minstrelRate
	best        int // index of the highest-throughput tried rate
	safe        int // index of the most reliable tried rate (fallback)
	frames      uint64
	lastUpdate  uint64
	everUpdated bool
	consecFails int
	nextUntried int
}

// Minstrel adapts the rate from observed delivery outcomes, after the
// Linux mac80211 algorithm of the same name: per-rate success
// probabilities smoothed by an EWMA over sampling windows, rates
// ranked by expected throughput (probability × rate), periodic probe
// frames at non-best rates to track a changing channel, and a
// most-reliable fallback rate after consecutive failures. All state is
// per destination; all randomness comes from the RNG handed to
// NewMinstrel, so a fixed seed yields a fixed decision sequence.
type Minstrel struct {
	cfg  MinstrelConfig
	rng  *rand.Rand
	dsts map[Addr]*minstrelDst
}

// NewMinstrel creates a Minstrel adapter drawing its probe schedule
// from rng (fork it from the owning station's scheduler — see
// sim.Scheduler.ForkRand — to keep simulations reproducible).
func NewMinstrel(cfg MinstrelConfig, rng *rand.Rand) *Minstrel {
	return &Minstrel{cfg: cfg.withDefaults(), rng: rng, dsts: make(map[Addr]*minstrelDst)}
}

func (m *Minstrel) dst(a Addr) *minstrelDst {
	d, ok := m.dsts[a]
	if !ok {
		d = &minstrelDst{rates: make([]minstrelRate, len(m.cfg.Rates))}
		// Start optimistic: rank untried rates by nominal throughput so
		// the initial ramp begins at the top.
		d.best = len(m.cfg.Rates) - 1
		d.safe = d.best
		m.dsts[a] = d
	}
	return d
}

// index resolves a rate to its candidate index, or -1.
func (m *Minstrel) index(r phy.Rate) int {
	for i, c := range m.cfg.Rates {
		if c.Kbps == r.Kbps && c.HT == r.HT {
			return i
		}
	}
	return -1
}

// RateFor implements RateAdapter.
func (m *Minstrel) RateFor(dst Addr) phy.Rate {
	d := m.dst(dst)
	d.frames++
	// Regular updates every minstrelUpdateEvery frames, plus one
	// immediately after the initial ramp: until the first update the
	// ranking still points at the optimistic top-rate default, which on
	// a poor channel would stall the first minstrelUpdateEvery frames at
	// a dead rate.
	if d.frames-d.lastUpdate >= minstrelUpdateEvery ||
		(!d.everUpdated && d.nextUntried >= len(d.rates)) {
		m.update(d)
	}
	// Initial ramp: try every rate once, top-down, before trusting the
	// ranking.
	if d.nextUntried < len(d.rates) {
		i := len(d.rates) - 1 - d.nextUntried
		d.nextUntried++
		d.rates[i].sampledAt = d.frames
		return m.cfg.Rates[i]
	}
	// Probe schedule: every SampleEvery-th frame samples a random
	// non-best rate; rates slower than the best only when stale. The
	// RNG is drawn on every eligible frame regardless of the outcome,
	// keeping the stream's consumption pattern simple.
	if m.cfg.SampleEvery > 0 && d.frames%uint64(m.cfg.SampleEvery) == 0 && len(d.rates) > 1 {
		i := m.rng.Intn(len(d.rates) - 1)
		if i >= d.best {
			i++
		}
		s := &d.rates[i]
		slower := m.cfg.Rates[i].Kbps < m.cfg.Rates[d.best].Kbps
		if !slower || d.frames-s.sampledAt >= minstrelStaleAfter {
			s.sampledAt = d.frames
			return m.cfg.Rates[i]
		}
	}
	// Retry-chain approximation: after a burst of failures, drop to the
	// most reliable known rate until a success comes back.
	if d.consecFails >= minstrelFallbackAfter && d.safe != d.best {
		return m.cfg.Rates[d.safe]
	}
	return m.cfg.Rates[d.best]
}

// OnTxResult implements RateAdapter.
func (m *Minstrel) OnTxResult(dst Addr, rate phy.Rate, ok bool) {
	i := m.index(rate)
	if i < 0 {
		return
	}
	d := m.dst(dst)
	s := &d.rates[i]
	s.attempts++
	s.totalAttempts++
	if ok {
		s.successes++
		s.totalSuccesses++
		d.consecFails = 0
	} else {
		d.consecFails++
	}
}

// update folds the current sampling windows into the EWMA statistics
// and re-ranks the rates.
func (m *Minstrel) update(d *minstrelDst) {
	d.lastUpdate = d.frames
	d.everUpdated = true
	for i := range d.rates {
		s := &d.rates[i]
		if s.attempts == 0 {
			continue
		}
		p := float64(s.successes) / float64(s.attempts)
		if s.tried {
			s.prob = float64((1-minstrelEWMAWeight)*s.prob) + float64(minstrelEWMAWeight*p)
		} else {
			s.prob = p
			s.tried = true
		}
		s.tput = s.prob * float64(m.cfg.Rates[i].Kbps)
		s.attempts, s.successes = 0, 0
	}
	best, safe := -1, -1
	for i := range d.rates {
		s := &d.rates[i]
		if !s.tried {
			continue
		}
		if best < 0 || s.tput > d.rates[best].tput {
			best = i
		}
		if safe < 0 || s.prob > d.rates[safe].prob ||
			(s.prob == d.rates[safe].prob && s.tput > d.rates[safe].tput) {
			safe = i
		}
	}
	if best >= 0 {
		d.best, d.safe = best, safe
	}
}

// RateStats is one rate's learned state, for tests and CLIs.
type RateStats struct {
	Rate      phy.Rate
	Prob      float64 // EWMA delivery probability
	TputKbps  float64 // prob × rate, the ranking metric
	Attempts  uint64  // lifetime MPDU attempts
	Successes uint64  // lifetime delivered MPDUs
	Best      bool    // currently the top-ranked rate
}

// Snapshot reports the learned per-rate statistics toward dst, in
// candidate-rate order.
func (m *Minstrel) Snapshot(dst Addr) []RateStats {
	d, ok := m.dsts[dst]
	if !ok {
		return nil
	}
	out := make([]RateStats, len(d.rates))
	for i := range d.rates {
		s := &d.rates[i]
		out[i] = RateStats{
			Rate: m.cfg.Rates[i], Prob: s.prob, TputKbps: s.tput,
			Attempts: s.totalAttempts, Successes: s.totalSuccesses,
			Best: i == d.best,
		}
	}
	return out
}

// AdapterKind enumerates the built-in rate-adaptation strategies.
type AdapterKind int

// The built-in adapter kinds, in ParseAdapterSpec's vocabulary.
const (
	AdapterFixed AdapterKind = iota
	AdapterIdeal
	AdapterMinstrel
	AdapterArgmax
)

func (k AdapterKind) String() string {
	switch k {
	case AdapterFixed:
		return "fixed"
	case AdapterIdeal:
		return "ideal"
	case AdapterMinstrel:
		return "minstrel"
	case AdapterArgmax:
		return "argmax"
	}
	return fmt.Sprintf("AdapterKind(%d)", int(k))
}

// AdapterSpec is a parsed rate-adapter selection: which strategy, and
// for AdapterFixed optionally which pinned rate.
type AdapterSpec struct {
	Kind AdapterKind
	// Rate pins the fixed rate ("fixed:<rate>"); zero means the
	// station's configured DataRate.
	Rate phy.Rate
}

// ParseAdapterSpec parses the scenario-axis vocabulary for rate
// adaptation: "" or "fixed" (pin the configured rate), "fixed:<rate>"
// (pin a named rate — see phy.ParseRate for names like "mcs3" or
// "a54"), "ideal" (the negligible-FER threshold oracle), "argmax"
// (the expected-goodput argmax oracle), and "minstrel".
func ParseAdapterSpec(s string) (AdapterSpec, error) {
	switch {
	case s == "" || s == "fixed":
		return AdapterSpec{Kind: AdapterFixed}, nil
	case s == "ideal":
		return AdapterSpec{Kind: AdapterIdeal}, nil
	case s == "minstrel":
		return AdapterSpec{Kind: AdapterMinstrel}, nil
	case s == "argmax":
		return AdapterSpec{Kind: AdapterArgmax}, nil
	case strings.HasPrefix(s, "fixed:"):
		r, err := phy.ParseRate(strings.TrimPrefix(s, "fixed:"))
		if err != nil {
			return AdapterSpec{}, fmt.Errorf("adapter %q: %w", s, err)
		}
		return AdapterSpec{Kind: AdapterFixed, Rate: r}, nil
	}
	return AdapterSpec{}, fmt.Errorf("unknown rate adapter %q (want fixed, fixed:<rate>, ideal, argmax, or minstrel)", s)
}
