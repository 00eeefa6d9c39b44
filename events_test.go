// Exact-work guard for the N-scaling workload. Host time drifts from
// run to run and machine to machine; the number of events a
// deterministic simulation fires, and the mallocs it makes, do not. A
// change that alters the work BenchmarkScale measures fails here, and
// updates scaleEvents or scaleMallocs with the reason, rather than
// reading as a speed-up or a slow-down.
package tcphack

import (
	"fmt"
	"testing"

	"tcphack/internal/channel"
)

// scaleEvents is the number of events BenchmarkScale's and
// BenchmarkScaleSpatial's measurement window fires at each station
// count (BENCH_24.json). Both PHYs fire the same events: the 2 m grid
// keeps every station inside carrier-sense range.
var scaleEvents = map[int]uint64{10: 50_718, 100: 50_701, 1000: 50_711}

// scaleMallocs is the number of mallocs the same window makes, on
// either PHY, counted under exactWindow.
var scaleMallocs = map[int]uint64{10: 0, 100: 1, 1000: 34}

// TestScaleEventCounts runs the BenchmarkScale window on the scalar
// and the spatial PHY at 10, 100 and 1000 stations and requires the
// exact event count of scaleEvents and the exact mallocs of
// scaleMallocs.
func TestScaleEventCounts(t *testing.T) {
	for _, phy := range []struct {
		name string
		geom *channel.Geometry
	}{{"scalar", nil}, {"spatial", channel.DefaultGeometry()}} {
		for _, stations := range []int{10, 100, 1000} {
			t.Run(fmt.Sprintf("%s/stations=%d", phy.name, stations), func(t *testing.T) {
				n := scaleNetwork(stations, phy.geom)
				n.Run(scaleWarm)
				defer exactWindow()()
				ev0 := n.Sched.EventsFired()
				_, mallocs := windowMallocs(t, n, scaleWarm+scaleMeasure)
				if got, want := n.Sched.EventsFired()-ev0, scaleEvents[stations]; got != want {
					t.Errorf("window fired %d events, want %d", got, want)
				}
				if want := scaleMallocs[stations]; mallocs != want {
					t.Errorf("window made %d mallocs, want %d", mallocs, want)
				}
			})
		}
	}
}
