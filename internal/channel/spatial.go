package channel

import (
	"math"
	"sort"
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

// oneDomain reports whether g couples every radio to every other: nil,
// or DegenerateGeometry's carrier-sense threshold, delivery floor and
// capture margin. The medium then needs no per-pair physics.
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

// CaptureOK reports whether a frame at rate received at signalDBm
// decodes despite the given concurrent interferers: its SINR must
// clear SINRThresholdDB(rate) plus the capture margin. With no
// interferers the frame always decodes (noise corruption is the error
// model's job, drawn separately). It applies the medium's own capture
// rule to these powers, and the decision is deterministic and
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
// noise floor, with the arithmetic of the medium's capture decision.
// The interferers are summed in a canonical order, so the result is
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

// rxNone marks a receiver that gets no EndRx for a transmission
// (below the delivery floor, or the source itself).
const rxNone Outcome = -1

// ensureState builds the engine's state at the first Transmit and
// extends it to radios attached since; existing indices never move.
// The first call decides whether the geometry is one collision domain
// (Geometry.oneDomain), which needs no state. Otherwise it builds the
// symmetric power matrix, per-radio carrier state and linear-domain
// thresholds.
func (m *Medium) ensureState() {
	if !m.built {
		m.built = true
		m.oneDomain = m.Geometry.oneDomain()
	}
	n := len(m.radios)
	if m.oneDomain || len(m.powerMW) == n {
		return
	}
	g := m.Geometry
	old := len(m.powerMW)
	mat := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range mat {
		mat[i] = buf[i*n : (i+1)*n]
	}
	for i := 0; i < old; i++ {
		copy(mat[i], m.powerMW[i])
	}
	for i := old; i < n; i++ {
		m.txOwn = append(m.txOwn, 0)
		m.senseBusy = append(m.senseBusy, false)
		m.senseMW = append(m.senseMW, 0)
	}
	for i := 0; i < n; i++ {
		pi := m.radios[i].Position()
		lo := i + 1
		if lo < old {
			lo = old
		}
		for j := lo; j < n; j++ {
			p := phy.DBmToMilliwatts(g.RxPowerDBm(pi.DistanceTo(m.radios[j].Position())))
			mat[i][j] = p
			mat[j][i] = p
		}
	}
	m.powerMW = mat
	// Radios attached mid-transmission start sensing the power already
	// on the air.
	for i := old; i < n; i++ {
		for _, o := range m.active {
			m.senseMW[i] += mat[o.srcIdx][i]
		}
	}
	m.noiseMW = phy.DBmToMilliwatts(g.NoiseDBm)
	m.csMW = phy.DBmToMilliwatts(g.CSThresholdDBm)
	m.floorMW = phy.DBmToMilliwatts(g.DeliveryFloorDBm)
	m.scratchSum = make([]float64, n)
	m.scratchOut = make([]Outcome, n)
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
// accrue their interference maxima, and coupled pairs collide. It
// draws no randomness.
func (m *Medium) addPower(tx *Transmission, now sim.Time) {
	nR := len(m.radios)
	si := tx.srcIdx
	tx.interfMax = zeroedBuf(tx.interfMax, nR)
	row := m.powerMW[si]
	// A fresh busy period copies rather than accumulates, which also
	// discards any float drift from the previous period.
	if len(m.active) == 0 {
		copy(m.senseMW, row)
	} else {
		for j := 0; j < nR; j++ {
			m.senseMW[j] += row[j]
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
			// transmission at every receiver. +Inf entries (half-duplex)
			// are sticky: no finite max can overwrite them.
			for j := 0; j < nR; j++ {
				if j == oi {
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
			// The pair is a coupled collision — traced and counted —
			// when the sources hear each other or share any in-range
			// third receiver. Uncoupled overlaps are mere spatial reuse.
			coupled := row[oi] >= m.floorMW
			if !coupled {
				for j := 0; j < nR; j++ {
					if j == si || j == oi {
						continue
					}
					if row[j] >= m.floorMW && orow[j] >= m.floorMW {
						coupled = true
						break
					}
				}
			}
			if coupled {
				m.collide(tx, o)
			}
		}
		for j := 0; j < nR; j++ {
			if j == si {
				continue
			}
			if v := S[j] - row[j]; v > tx.interfMax[j] {
				tx.interfMax[j] = v
			}
		}
	}
	m.txOwn[si]++
}

// removePower is the general engine's half of finish: tx's power
// leaves the sensed sums, and each receiver's outcome lands in
// scratchOut, decided by the capture rule from the interference tx
// accrued.
func (m *Medium) removePower(tx *Transmission) {
	si := tx.srcIdx
	m.txOwn[si]--
	row := m.powerMW[si]
	// A fully idle medium resets the sums exactly, bounding float drift
	// to one busy period.
	if len(m.active) == 0 {
		clear(m.senseMW)
	} else {
		for j := range m.senseMW {
			m.senseMW[j] -= row[j]
		}
	}
	thr := SINRThresholdDB(tx.Rate) + m.Geometry.CaptureMarginDB
	out := m.scratchOut
	for j := range out {
		out[j] = rxNone
		rp := row[j]
		if j == si || rp < m.floorMW {
			continue
		}
		iv := 0.0
		if j < len(tx.interfMax) {
			iv = tx.interfMax[j]
		}
		switch {
		case iv == 0:
			// Never overlapped at this receiver: decodes; noise
			// corruption is drawn separately via Corrupted.
			out[j] = RxOK
		case math.IsInf(iv, 1):
			out[j] = RxCollided
		case captures(rp, m.noiseMW, iv, thr):
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
// caused, in attach order. In a single collision domain every radio
// turns busy or idle with the medium as a whole. Otherwise a radio is
// busy while it is transmitting or while the summed power of
// transmissions on the air reaches the carrier-sense threshold.
// Transmissions past their End but not yet finished still count — they
// are on the air until their finish event runs, which keeps idle edges
// strictly after deliveries.
func (m *Medium) updateCarrier() {
	onAir := len(m.active) > 0
	if m.oneDomain {
		if onAir == m.allBusy {
			return
		}
		m.allBusy = onAir
		if onAir {
			for _, r := range m.radios {
				r.CarrierBusy()
			}
		} else {
			for _, r := range m.radios {
				r.CarrierIdle()
			}
		}
		return
	}
	for j, r := range m.radios {
		busy := m.txOwn[j] > 0 || (onAir && m.senseMW[j] >= m.csMW)
		if busy == m.senseBusy[j] {
			continue
		}
		m.senseBusy[j] = busy
		if busy {
			r.CarrierBusy()
		} else {
			r.CarrierIdle()
		}
	}
}
