package channel

import (
	"math"
	"math/bits"
	"sync"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// Geometry configures the medium's physics (see doc.go): log-distance
// path loss, per-receiver carrier sensing, and SINR capture. A Geometry
// is read-only once in use — one instance may be shared by many
// concurrently running media (campaign workers).
type Geometry struct {
	// TxPowerDBm is the transmit power of every radio (default 16 dBm).
	TxPowerDBm float64
	// RefLossDB is path loss at 1 m (≈46.7 dB at 2.4 GHz free space).
	RefLossDB float64
	// Exponent is the path-loss exponent (3.0 ≈ indoor office).
	Exponent float64
	// NoiseDBm is the receiver noise floor (≈ -90.9 dBm for 40 MHz with
	// a 7 dB noise figure).
	NoiseDBm float64
	// CSThresholdDBm is the energy-detect carrier-sense threshold: a
	// radio reports busy while the summed received power of in-flight
	// transmissions is at or above it. -Inf makes every radio sense
	// every transmission.
	CSThresholdDBm float64
	// DeliveryFloorDBm is the weakest received power at which a frame
	// is still handed to a receiver at all. Below it there is no EndRx:
	// no NAV, no EIFS, no promiscuous copy. -Inf delivers everywhere.
	DeliveryFloorDBm float64
	// CaptureMarginDB is added to the rate's SINR decode threshold when
	// a frame suffered overlap. 0 models ideal capture; +Inf disables
	// capture entirely (any overlap collides).
	CaptureMarginDB float64
}

// DefaultGeometry returns the spatial PHY matching the paper's indoor
// 40 MHz 802.11n setup (the same constants as DefaultSNRModel) with an
// 802.11-style -82 dBm carrier-sense threshold and delivery floor and
// ideal capture. Sense/delivery range works out to ≈51.5 m.
func DefaultGeometry() *Geometry {
	return &Geometry{
		TxPowerDBm:       16,
		RefLossDB:        46.7,
		Exponent:         3.0,
		NoiseDBm:         -90.9,
		CSThresholdDBm:   -82,
		DeliveryFloorDBm: -82,
		CaptureMarginDB:  0,
	}
}

// oneDomain reports whether g couples every radio to every other: nil,
// or carrier sense and delivery floor at -Inf with capture margin +Inf.
// The medium then needs no per-pair physics.
func (g *Geometry) oneDomain() bool {
	return g == nil || math.IsInf(g.CSThresholdDBm, -1) &&
		math.IsInf(g.DeliveryFloorDBm, -1) && math.IsInf(g.CaptureMarginDB, 1)
}

// RxPowerDBm returns the received power at distance metres under the
// geometry's log-distance path-loss model. Distances under 1 m clamp
// to the 1 m reference point.
func (g *Geometry) RxPowerDBm(distance float64) float64 {
	if distance < 1 {
		distance = 1
	}
	return g.TxPowerDBm - g.RefLossDB - float64(10*g.Exponent*math.Log10(distance))
}

// sinrDB is the SINR in dB of a signal over noise plus aggregate
// interference, all in mW.
func sinrDB(signalMW, noiseMW, interfMW float64) float64 {
	return 10 * math.Log10(signalMW/(noiseMW+interfMW))
}

// captures is the capture rule: a frame received at signalMW decodes
// over noiseMW plus interfMW of aggregate interference iff its SINR
// reaches thresholdDB, the rate's decode threshold plus the capture
// margin.
func captures(signalMW, noiseMW, interfMW, thresholdDB float64) bool {
	return sinrDB(signalMW, noiseMW, interfMW) >= thresholdDB
}

// sinrThresholds caches SINRThresholdDB per rate; phy.Rate is a
// comparable struct, so it keys the map directly.
var sinrThresholds sync.Map

// SINRThresholdDB returns the decode threshold for rate: the lowest
// SINR (dB) at which a 1460-byte frame's FrameErrorRate is at most
// 10%. It reuses the error model's SNR→FER tables, so the capture
// model and the noise model share one waterfall per rate.
func SINRThresholdDB(rate phy.Rate) float64 {
	if v, ok := sinrThresholds.Load(rate); ok {
		return v.(float64)
	}
	const frameLen = 1460
	lo, hi := -10.0, 60.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if FrameErrorRate(rate, mid, frameLen) <= 0.1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	sinrThresholds.Store(rate, hi)
	return hi
}

// captureGuardDB is the half-width, in dB, of the band around a capture
// threshold inside which the medium decides capture with the dB rule
// (captures). Outside the band the linear SINR decides: the band is far
// wider than log10's rounding error, so both rules agree there.
const captureGuardDB = 1e-6

// captureRule is one rate's capture decision on a medium: the dB
// threshold, SINRThresholdDB(rate) plus the capture margin, and the
// linear SINR bounds of its guard band, 10^((thrDB ∓ captureGuardDB)/10).
// NaN bounds send every decision to the dB rule.
type captureRule struct {
	rate   phy.Rate
	thrDB  float64
	lo, hi float64
}

// newCaptureRule returns the rule for rate at threshold thrDB. Beyond
// ±1000 dB the bounds would near the ends of float64's range, where a
// power of ten loses precision, so there the dB rule decides alone.
func newCaptureRule(rate phy.Rate, thrDB float64) captureRule {
	c := captureRule{rate: rate, thrDB: thrDB, lo: math.NaN(), hi: math.NaN()}
	if math.Abs(thrDB) <= 1000 {
		c.lo = math.Pow(10, (thrDB-captureGuardDB)/10)
		c.hi = math.Pow(10, (thrDB+captureGuardDB)/10)
	}
	return c
}

// captures decides capture as captures(signalMW, noiseMW, interfMW,
// c.thrDB) does, taking a logarithm only inside the guard band.
func (c *captureRule) captures(signalMW, noiseMW, interfMW float64) bool {
	switch r := signalMW / (noiseMW + interfMW); {
	case r >= c.hi:
		return true
	case r < c.lo:
		return false
	}
	return captures(signalMW, noiseMW, interfMW, c.thrDB)
}

// captureFor returns rate's capture rule on m, made at its first use.
func (m *Medium) captureFor(rate phy.Rate) *captureRule {
	for i := range m.capture {
		if m.capture[i].rate == rate {
			return &m.capture[i]
		}
	}
	m.capture = append(m.capture, newCaptureRule(rate, SINRThresholdDB(rate)+m.Geometry.CaptureMarginDB))
	return &m.capture[len(m.capture)-1]
}

// ensureState builds the engine's state at the first Transmit, which
// fixes the radio set: Attach panics after it. It decides whether the
// geometry is one collision domain (Geometry.oneDomain), which needs
// no state. Otherwise it builds the symmetric power matrix, the reach
// lists, the coupling memo and per-radio carrier state.
func (m *Medium) ensureState() {
	if m.built {
		return
	}
	m.built = true
	one := m.Geometry.oneDomain()
	if m.deaf > 0 && one != m.oneDomain {
		panic("channel: Geometry assigned after a radio stopped listening")
	}
	m.oneDomain = one
	if one {
		return
	}
	g := m.Geometry
	n := len(m.radios)
	mat := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range mat {
		mat[i] = buf[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		pi := m.radios[i].Position()
		for j := i + 1; j < n; j++ {
			p := phy.DBmToMilliwatts(g.RxPowerDBm(pi.DistanceTo(m.radios[j].Position())))
			mat[i][j] = p
			mat[j][i] = p
		}
	}
	m.powerMW = mat
	m.noiseMW = phy.DBmToMilliwatts(g.NoiseDBm)
	m.csMW = phy.DBmToMilliwatts(g.CSThresholdDBm)
	m.floorMW = phy.DBmToMilliwatts(g.DeliveryFloorDBm)
	m.buildReach()
	m.coupled = make([]uint8, n*n)
	m.txOwn = make([]int, n)
	m.senseMW = make([]float64, n)
	m.carriers = make([]Carrier, n)
	m.scratchSum = make([]float64, n)
	m.scratchOut = make([]Outcome, n)
}

// buildReach builds every source's reach list. A list holds,
// ascending, the source itself and every radio its frames reach: at
// or above the delivery floor, by removePower's own comparison. The
// sources that reach every radio share the list of every index, so a
// dense network keeps one list.
func (m *Medium) buildReach() {
	n := len(m.radios)
	m.every = make([]int32, n)
	for i := range m.every {
		m.every[i] = int32(i)
	}
	m.reach = make([][]int32, n)
	for i, row := range m.powerMW {
		reached := 0
		for j, p := range row {
			if j == i || !(p < m.floorMW) {
				reached++
			}
		}
		if reached == n {
			m.reach[i] = m.every
			continue
		}
		list := make([]int32, 0, reached)
		for j, p := range row {
			if j == i || !(p < m.floorMW) {
				list = append(list, int32(j))
			}
		}
		m.reach[i] = list
	}
}

// zeroedBuf returns b resized to n and zeroed, reusing its array when
// it is large enough.
func zeroedBuf(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// addPower is the general engine's half of Transmit: tx's power joins
// every radio's sensed sum, tx and every transmission it overlaps
// accrue their interference maxima at the radios they reach, and
// coupled pairs collide. It draws no randomness.
func (m *Medium) addPower(tx *Transmission, now sim.Time) {
	nR := len(m.radios)
	si := tx.srcIdx
	tx.interfMax = zeroedBuf(tx.interfMax, nR)
	row := m.powerMW[si]
	m.txOwn[si]++
	// A fresh busy period copies rather than accumulates, which also
	// discards any float drift from the previous period.
	if len(m.active) == 0 {
		copy(m.senseMW, row)
	} else {
		for j, p := range row {
			m.senseMW[j] += p
		}
	}
	// A transmission ending exactly now does not overlap (its finish
	// event may simply not have run yet at this instant).
	nOverlap := 0
	for _, o := range m.active {
		if o.End > now {
			nOverlap++
		}
	}
	if nOverlap > 0 {
		// Total received power at each radio with the new transmission
		// on the air.
		S := m.scratchSum
		copy(S, row)
		for _, o := range m.active {
			if o.End <= now {
				continue
			}
			orow := m.powerMW[o.srcIdx]
			for j := 0; j < nR; j++ {
				S[j] += orow[j]
			}
		}
		for _, o := range m.active {
			if o.End <= now {
				continue
			}
			oi := o.srcIdx
			orow := m.powerMW[oi]
			// Worst-instant aggregate interference for the ongoing
			// transmission at every receiver it reaches, the only
			// outcomes it decides. +Inf entries (half-duplex) are
			// sticky: no finite max can overwrite them.
			for _, j := range m.reach[oi] {
				if int(j) == oi {
					continue
				}
				if v := S[j] - orow[j]; v > o.interfMax[j] {
					o.interfMax[j] = v
				}
			}
			// Half-duplex: a radio transmitting during any part of a
			// frame can never decode that frame.
			o.interfMax[si] = math.Inf(1)
			tx.interfMax[oi] = math.Inf(1)
			if m.couples(si, oi) {
				m.collide(tx, o)
			}
		}
		for _, j := range m.reach[si] {
			if int(j) == si {
				continue
			}
			if v := S[j] - row[j]; v > tx.interfMax[j] {
				tx.interfMax[j] = v
			}
		}
	}
}

// couples reports whether overlapping frames from sources a and b are a
// coupled collision — traced and counted — because the sources hear
// each other or share any in-range third receiver. Uncoupled overlaps
// are mere spatial reuse. The shared-receiver test depends only on the
// power matrix, so it runs once per pair.
func (m *Medium) couples(a, b int) bool {
	arow, brow := m.powerMW[a], m.powerMW[b]
	if arow[b] >= m.floorMW {
		return true
	}
	n := len(m.powerMW)
	memo := &m.coupled[a*n+b]
	if *memo == 0 {
		*memo = pairApart
		for j := 0; j < n; j++ {
			if j != a && j != b && arow[j] >= m.floorMW && brow[j] >= m.floorMW {
				*memo = pairCoupled
				break
			}
		}
		m.coupled[b*n+a] = *memo
	}
	return *memo == pairCoupled
}

// Values of the coupling memo; 0 is not yet known.
const (
	pairCoupled uint8 = 1 + iota
	pairApart
)

// removePower is the general engine's half of finish: tx's power
// leaves the sensed sums, and the outcome at each radio tx reaches
// lands in scratchOut, decided by the capture rule from the
// interference tx accrued.
func (m *Medium) removePower(tx *Transmission) {
	si := tx.srcIdx
	m.txOwn[si]--
	row := m.powerMW[si]
	// A fully idle medium resets the sums exactly, bounding float drift
	// to one busy period.
	if len(m.active) == 0 {
		clear(m.senseMW)
	} else {
		for j, p := range row {
			m.senseMW[j] -= p
		}
	}
	rule := m.captureFor(tx.Rate)
	out := m.scratchOut
	for _, j := range m.reach[si] {
		if int(j) == si {
			continue
		}
		iv := tx.interfMax[j]
		switch {
		case iv == 0:
			// Never overlapped at this receiver: decodes; noise
			// corruption is drawn separately via Corrupted.
			out[j] = RxOK
		case math.IsInf(iv, 1):
			out[j] = RxCollided
		case rule.captures(row[j], m.noiseMW, iv):
			out[j] = RxOK
		default:
			out[j] = RxCollided
		}
		if out[j] == RxCollided {
			m.markCollided(tx)
		}
	}
}

// updateCarrier emits the carrier edges the last change to the air
// caused, in attach order, to the radios that listen, and records each
// edge in the carrier history. In a single collision domain every
// radio turns busy or idle with the medium as a whole, and the medium
// keeps one history. Otherwise a radio is busy while it is
// transmitting or while the summed power of transmissions on the air
// reaches the carrier-sense threshold, and each radio has its own
// history (see radioEdges). Transmissions past their End but not yet
// finished still count — they are on the air until their finish event
// runs, which keeps idle edges strictly after deliveries.
func (m *Medium) updateCarrier() {
	if !m.oneDomain {
		m.radioEdges()
		return
	}
	onAir := len(m.active) > 0
	c := &m.carrier
	if onAir == c.Busy {
		return
	}
	c.record(onAir, m.sched.Now())
	switch {
	case m.deaf > 0:
		for w := range m.listen {
			for word := m.listen[w]; word != 0; {
				b := bits.TrailingZeros64(word)
				if r := m.radios[w<<6|b]; onAir {
					r.CarrierBusy()
				} else {
					r.CarrierIdle()
				}
				word = m.listenersAbove(w, b)
			}
		}
	case onAir:
		for _, r := range m.radios {
			r.CarrierBusy()
		}
	default:
		for _, r := range m.radios {
			r.CarrierIdle()
		}
	}
}

// radioEdges is the general engine's updateCarrier: each radio's
// carrier record holds the state its last edge left, and a radio whose
// state the air has changed gets an edge, recorded whether or not it
// listens.
func (m *Medium) radioEdges() {
	now := m.sched.Now()
	onAir := len(m.active) > 0
	for j := range m.carriers {
		busy := m.txOwn[j] > 0 || (onAir && m.senseMW[j] >= m.csMW)
		c := &m.carriers[j]
		if busy == c.Busy {
			continue
		}
		c.record(busy, now)
		if m.listen[j>>6]&(1<<(j&63)) == 0 {
			continue
		}
		if busy {
			m.radios[j].CarrierBusy()
		} else {
			m.radios[j].CarrierIdle()
		}
	}
}

// record notes a carrier edge to busy at now.
func (c *Carrier) record(busy bool, now sim.Time) {
	c.Busy = busy
	c.Edges++
	if busy {
		c.BusyAt = now
	} else {
		c.IdleAt = now
	}
}
