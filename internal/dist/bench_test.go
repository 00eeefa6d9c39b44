package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/sim"
)

// BenchmarkDistLoopback measures dist points/s end to end: a daemon
// over loopback HTTP and one Worker simulate eight one-point shards of
// ht150-stock (modes off/more-data × 4 seeds, 200 ms warm-up, 1 s
// measure) at GOMAXPROCS 1 and 2, the worker's slot count. Every
// iteration starts a fresh daemon and store, so no point is memoized.
func BenchmarkDistLoopback(b *testing.B) {
	w := campaign.WireSpec{
		Name:     "dist-bench",
		Scenario: "ht150-stock",
		Axes: campaign.WireAxes{
			Modes: []string{"off", "more-data"},
			Seeds: campaign.Seeds(1, 4),
		},
		Warmup:  200 * sim.Millisecond,
		Measure: sim.Second,
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			points := 0
			for i := 0; i < b.N; i++ {
				points += distLoopbackJob(b, w)
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// distLoopbackJob runs one job of w to completion on a fresh daemon
// and worker, and returns its point count.
func distLoopbackJob(b *testing.B, w campaign.WireSpec) int {
	s, err := NewServer(ServerConfig{ShardSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := Client{BaseURL: ts.URL}
	st, err := c.Submit(w, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker := &Worker{Client: c, Name: "bench", Poll: time.Millisecond, MaxPoll: 2 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- worker.Run(ctx) }()
	if _, err := c.WaitDone(ctx, st.ID, time.Millisecond); err != nil {
		b.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	return st.TotalPoints
}
