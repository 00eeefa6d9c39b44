// Exact-work guard for the N-scaling workload. Host time drifts from
// run to run and machine to machine; the number of events a
// deterministic simulation fires does not. A change that alters the
// work BenchmarkScale measures fails here, and updates scaleEvents with
// the reason, rather than reading as a speed-up or a slow-down.
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

// TestScaleEventCounts runs the BenchmarkScale window on the scalar
// and the spatial PHY at 10, 100 and 1000 stations and requires the
// exact event count of scaleEvents.
func TestScaleEventCounts(t *testing.T) {
	for _, phy := range []struct {
		name string
		geom *channel.Geometry
	}{{"scalar", nil}, {"spatial", channel.DefaultGeometry()}} {
		for _, stations := range []int{10, 100, 1000} {
			t.Run(fmt.Sprintf("%s/stations=%d", phy.name, stations), func(t *testing.T) {
				n := scaleNetwork(stations, phy.geom)
				n.Run(scaleWarm)
				ev0 := n.Sched.EventsFired()
				n.Run(scaleWarm + scaleMeasure)
				if got, want := n.Sched.EventsFired()-ev0, scaleEvents[stations]; got != want {
					t.Errorf("window fired %d events, want %d", got, want)
				}
			})
		}
	}
}
