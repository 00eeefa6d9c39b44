package channel

import (
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// quietRadio ignores every callback, so that a test counts the
// medium's own work and allocations only.
type quietRadio struct {
	Port
	pos Pos
}

func (r *quietRadio) Position() Pos              { return r.pos }
func (*quietRadio) CarrierBusy()                 {}
func (*quietRadio) CarrierIdle()                 {}
func (*quietRadio) EndRx(*Transmission, Outcome) {}

// quietMedium attaches n quiet radios on a 2 m grid, ten to a row, to
// a medium with geometry g. A grid of up to 100 radios lies inside
// DefaultGeometry's carrier-sense range.
func quietMedium(n int, g *Geometry) (*sim.Scheduler, *Medium, []Radio) {
	s := sim.NewScheduler(1)
	m := New(s, nil)
	m.Geometry = g
	radios := make([]Radio, n)
	for i := range radios {
		radios[i] = &quietRadio{pos: Pos{X: float64(i%10) * 2, Y: float64(i/10) * 2}}
		m.Attach(radios[i])
	}
	return s, m, radios
}

// nopOverhearer stands in for radios that do not listen and ignores
// what they miss.
type nopOverhearer struct{}

func (nopOverhearer) Overhear(*Transmission, Outcome) {}

type airCycleCase struct {
	name   string
	radios int
	geom   func() *Geometry
	// oneDomain marks a single collision domain, which the medium runs
	// without a power matrix or sensed sums.
	oneDomain bool
	// deaf makes every radio but the sender, radio 0, stop listening;
	// the cycle is then one frame. In a single collision domain its cost
	// must not grow with them; the general engine still delivers to
	// them and skips only their carrier edges.
	deaf bool
}

var airCycleCases = []airCycleCase{
	{name: "scalar", radios: 2, geom: func() *Geometry { return nil }, oneDomain: true},
	{name: "spatial-100", radios: 100, geom: DefaultGeometry},
	{name: "degenerate-1000", radios: 1000, geom: DegenerateGeometry, oneDomain: true},
	{name: "idle-10", radios: 10, geom: func() *Geometry { return nil }, oneDomain: true, deaf: true},
	{name: "idle-100", radios: 100, geom: func() *Geometry { return nil }, oneDomain: true, deaf: true},
	{name: "idle-1000", radios: 1000, geom: func() *Geometry { return nil }, oneDomain: true, deaf: true},
	{name: "spatial-idle-100", radios: 100, geom: DefaultGeometry, deaf: true},
}

// medium builds the case's medium of quiet radios.
func (c airCycleCase) medium() (*sim.Scheduler, *Medium, []Radio) {
	s, m, radios := quietMedium(c.radios, c.geom())
	if c.deaf {
		m.Overhearer = nopOverhearer{}
		for i := 1; i < c.radios; i++ {
			if m.StopListening(i) != c.oneDomain {
				panic("StopListening: deliveries stop in a single collision domain only")
			}
		}
	}
	return s, m, radios
}

// cycle sends the case's frames and runs the medium until they have
// finished: every delivery and carrier edge. Two frames overlap, so
// both collide; a deaf case sends one.
func (c airCycleCase) cycle(s *sim.Scheduler, m *Medium, radios []Radio) {
	m.Transmit(radios[0], phy.RateA54, 1500, nil)
	if !c.deaf {
		m.Transmit(radios[1], phy.RateA54, 1500, nil)
	}
	s.Run()
}

// TestTransmitAllocFree pins Transmit and finish at zero allocations on
// a warm medium, on both engines and with radios that do not listen:
// the medium recycles each Transmission, and with it the interference
// buffer. A single collision domain builds no per-pair state at all,
// however many radios attach.
func TestTransmitAllocFree(t *testing.T) {
	for _, c := range airCycleCases {
		s, m, radios := c.medium()
		c.cycle(s, m, radios) // warm: records, power matrix, scratch
		if n := testing.AllocsPerRun(100, func() { c.cycle(s, m, radios) }); n != 0 {
			t.Errorf("%s: %v allocs per Transmit+finish cycle, want 0", c.name, n)
		}
		if collided := m.CollidedTx > 0; collided == c.deaf {
			t.Errorf("%s: frames collided %v, want %v", c.name, collided, !c.deaf)
		}
		if c.oneDomain && (m.powerMW != nil || m.senseMW != nil) {
			t.Errorf("%s: single collision domain holds a %d-row power matrix and %d sensed sums, want none",
				c.name, len(m.powerMW), len(m.senseMW))
		}
	}
}

// TestTransmissionRecycled pins the record's lifetime: once a
// transmission finishes, the medium zeroes it, so a stale reader sees
// zeros, and the next Transmit reuses it.
func TestTransmissionRecycled(t *testing.T) {
	for _, c := range airCycleCases {
		s, m, radios := c.medium()
		tx := m.Transmit(radios[0], phy.RateA54, 1500, "frame")
		s.Run()
		if tx.ID != 0 || tx.Source != nil || tx.Frame != nil || tx.Length != 0 || tx.End != 0 || tx.collided {
			t.Errorf("%s: finished transmission reads %+v, want zeros", c.name, *tx)
		}
		if next := m.Transmit(radios[1], phy.RateA54, 1500, nil); next != tx {
			t.Errorf("%s: Transmit did not reuse the finished record", c.name)
		}
	}
}

// BenchmarkMediumTransmit measures one cycle on a warm medium in each
// case: two overlapping frames, or one frame among radios that do not
// listen, transmitted and finished.
func BenchmarkMediumTransmit(b *testing.B) {
	for _, c := range airCycleCases {
		b.Run(c.name, func(b *testing.B) {
			s, m, radios := c.medium()
			c.cycle(s, m, radios)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.cycle(s, m, radios)
			}
		})
	}
}
