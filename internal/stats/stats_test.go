package stats

import (
	"math"
	"testing"

	"tcphack/internal/sim"
)

func TestNoRetryFraction(t *testing.T) {
	var m MAC
	if m.NoRetryFraction() != 0 {
		t.Error("empty counters should give 0")
	}
	m.DeliveredFirstTry = 87
	m.DeliveredRetried = 13
	if got := m.NoRetryFraction(); math.Abs(got-0.87) > 1e-12 {
		t.Errorf("fraction = %v, want 0.87", got)
	}
}

func TestTimeBreakdownAdd(t *testing.T) {
	a := TimeBreakdown{TCPAckAir: 1, ROHCAir: 2, ChannelWait: 3, LLAckOverhead: 4}
	b := TimeBreakdown{TCPAckAir: 10, ROHCAir: 20, ChannelWait: 30, LLAckOverhead: 40}
	a.Add(b)
	if a.TCPAckAir != 11 || a.ROHCAir != 22 || a.ChannelWait != 33 || a.LLAckOverhead != 44 {
		t.Errorf("sum = %+v", a)
	}
	if a.String() == "" {
		t.Error("empty string")
	}
}

func TestAckAccounting(t *testing.T) {
	var a AckAccounting
	if a.CompressionRatio() != 0 {
		t.Error("ratio with no compressed acks should be 0")
	}
	// Paper's Table 2: 9050 compressed ACKs, 39478 bytes on air, from
	// ~52-byte originals → ratio ≈ 12.
	a.CompressedAcks = 9050
	a.CompressedBytes = 39478
	a.UncompressedOf = 9050 * 52
	if r := a.CompressionRatio(); r < 11 || r > 13 {
		t.Errorf("ratio = %.1f, want ≈12", r)
	}
}

func TestGoodputWindows(t *testing.T) {
	var g Goodput
	sec := sim.Second
	g.Add(1*sec, 1_000_000)
	g.MarkWindow(1 * sec)
	g.Add(2*sec, 1_000_000)
	g.Add(3*sec, 1_000_000)
	// Window covers 2 MB over 2 s = 8 Mbps.
	if got := g.WindowMbps(3 * sec); math.Abs(got-8) > 1e-9 {
		t.Errorf("window goodput = %v, want 8", got)
	}
	// Overall: 3 MB over 3 s = 8 Mbps.
	if got := g.Mbps(3 * sec); math.Abs(got-8) > 1e-9 {
		t.Errorf("total goodput = %v, want 8", got)
	}
	if g.Total() != 3_000_000 {
		t.Errorf("total = %d", g.Total())
	}
	if g.LastDelivery() != 3*sec {
		t.Errorf("last delivery = %v", g.LastDelivery())
	}
	// Degenerate windows.
	if g.WindowMbps(1*sec) != 0 {
		t.Error("zero-length window should be 0")
	}
	var empty Goodput
	if empty.Mbps(0) != 0 {
		t.Error("no time elapsed should be 0")
	}
}

// LastDelivery returns the time of the most recent delivery.
func (g *Goodput) LastDelivery() sim.Time { return g.lastAt }
