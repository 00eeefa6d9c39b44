package channel

import (
	"testing"

	"tcphack/internal/phy"
	"tcphack/internal/sim"
)

// quietRadio ignores every callback, so that a test counts the
// medium's own work and allocations only.
type quietRadio struct{ pos Pos }

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

// airCycle sends two overlapping frames, so both collide, and runs the
// medium until both have finished: every delivery and carrier edge.
func airCycle(s *sim.Scheduler, m *Medium, radios []Radio) {
	m.Transmit(radios[0], phy.RateA54, 1500, nil)
	m.Transmit(radios[1], phy.RateA54, 1500, nil)
	s.Run()
}

var airCycleCases = []struct {
	name   string
	radios int
	geom   func() *Geometry
	// oneDomain marks a single collision domain, which the medium runs
	// without a power matrix or sensed sums.
	oneDomain bool
}{
	{"scalar", 2, func() *Geometry { return nil }, true},
	{"spatial-100", 100, DefaultGeometry, false},
	{"degenerate-1000", 1000, DegenerateGeometry, true},
}

// TestTransmitAllocFree pins Transmit and finish at zero allocations on
// a warm medium, on both engines: the medium recycles each
// Transmission, and with it the interference buffer. A single
// collision domain builds no per-pair state at all, however many
// radios attach.
func TestTransmitAllocFree(t *testing.T) {
	for _, c := range airCycleCases {
		s, m, radios := quietMedium(c.radios, c.geom())
		airCycle(s, m, radios) // warm: records, power matrix, scratch
		if n := testing.AllocsPerRun(100, func() { airCycle(s, m, radios) }); n != 0 {
			t.Errorf("%s: %v allocs per Transmit+finish cycle, want 0", c.name, n)
		}
		if m.CollidedTx == 0 {
			t.Errorf("%s: the overlapping frames did not collide", c.name)
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
		s, m, radios := quietMedium(c.radios, c.geom())
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

// BenchmarkMediumTransmit measures one airCycle (two overlapping
// frames, transmitted and finished) on a warm medium in each case.
func BenchmarkMediumTransmit(b *testing.B) {
	for _, c := range airCycleCases {
		b.Run(c.name, func(b *testing.B) {
			s, m, radios := quietMedium(c.radios, c.geom())
			airCycle(s, m, radios)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				airCycle(s, m, radios)
			}
		})
	}
}
