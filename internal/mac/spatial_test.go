package mac

import (
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// spatialEnv builds a spatial-PHY environment under the default
// geometry (≈51.5 m sense/delivery range).
func spatialEnv(seed int64) *env {
	e := newEnv(seed, nil)
	e.medium.Geometry = channel.DefaultGeometry()
	return e
}

// saturate queues n frames from src to dst.
func saturate(src *Station, dst Addr, n int) {
	for i := 0; i < n; i++ {
		src.Enqueue(udpMSDU(src.Addr(), dst, 1500, uint16(i)))
	}
}

// runHiddenPair runs two saturated senders transmitting to one shared
// receiver, with the senders placed at ±senderX (so 2·senderX apart),
// and returns delivered frames and the medium.
func runHiddenPair(senderX float64, dur sim.Duration) (delivered int, m *channel.Medium) {
	e := spatialEnv(42)
	// 6 Mbps keeps each 1500-byte frame ≈2 ms on the air, so blind
	// senders overlap with near certainty.
	r := e.station(Config{Addr: 1, DataRate: phy.RateA6})
	a := e.station(Config{Addr: 2, DataRate: phy.RateA6, Pos: channel.Pos{X: -senderX}})
	b := e.station(Config{Addr: 3, DataRate: phy.RateA6, Pos: channel.Pos{X: senderX}})
	r.Deliver = func(*MSDU) { delivered++ }
	saturate(a, 1, 4000)
	saturate(b, 1, 4000)
	e.sched.RunUntil(sim.Time(dur))
	return delivered, e.medium
}

// TestHiddenTerminalCollisionCollapse reproduces the classic 3-node
// hidden-terminal pathology without RTS/CTS: two senders 80 m apart
// (mutually out of the ≈51.5 m sense range) saturate one receiver in
// the middle. Unable to defer to each other, their frames overlap at
// the receiver constantly; the coupled control — same workload with
// the senders 20 m apart, inside mutual sense range — resolves almost
// everything through carrier deferral.
func TestHiddenTerminalCollisionCollapse(t *testing.T) {
	const dur = 300 * sim.Millisecond
	hiddenDelivered, hiddenM := runHiddenPair(40, dur)
	coupledDelivered, coupledM := runHiddenPair(10, dur)

	if hiddenM.CollidedTx < 50 {
		t.Errorf("hidden pair CollidedTx = %d, want a collision collapse", hiddenM.CollidedTx)
	}
	if hiddenM.CollidedTx < 5*coupledM.CollidedTx {
		t.Errorf("hidden CollidedTx = %d not >> coupled %d",
			hiddenM.CollidedTx, coupledM.CollidedTx)
	}
	if coupledDelivered < 2*hiddenDelivered {
		t.Errorf("delivery: hidden %d vs coupled %d, want coupled at least 2x",
			hiddenDelivered, coupledDelivered)
	}
}

// runExposedPair runs two saturated independent flows A→B and C→D with
// the senders 40 m apart (inside mutual sense range) and the receivers
// pointing away from the other flow. cx shifts the second flow: 40
// makes the senders exposed terminals; 300 decouples them entirely.
func runExposedPair(cx float64, dur sim.Duration) (delivered int, m *channel.Medium) {
	e := spatialEnv(7)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA24})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA24, Pos: channel.Pos{X: -30}})
	c := e.station(Config{Addr: 3, DataRate: phy.RateA24, Pos: channel.Pos{X: cx}})
	d := e.station(Config{Addr: 4, DataRate: phy.RateA24, Pos: channel.Pos{X: cx + 30}})
	count := func(*MSDU) { delivered++ }
	b.Deliver = count
	d.Deliver = count
	saturate(a, 2, 4000)
	saturate(c, 4, 4000)
	e.sched.RunUntil(sim.Time(dur))
	return delivered, e.medium
}

// TestExposedTerminalDeferralLoss pins the exposed-terminal cost: two
// flows whose receivers are out of each other's interference range
// could run concurrently, but energy-detect carrier sensing makes the
// senders defer to each other, so together they deliver roughly what
// one flow would — about half of the decoupled control's aggregate.
func TestExposedTerminalDeferralLoss(t *testing.T) {
	const dur = 300 * sim.Millisecond
	exposedDelivered, exposedM := runExposedPair(40, dur)
	farDelivered, farM := runExposedPair(300, dur)

	ratio := float64(farDelivered) / float64(exposedDelivered)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("decoupled/exposed delivery ratio = %.2f (%d vs %d), want ≈2",
			ratio, farDelivered, exposedDelivered)
	}
	// Deferral, not collisions, causes the exposed loss: overlap only
	// happens on same-slot backoff expiry.
	if exposedM.CollidedTx > exposedM.TxCount/10 {
		t.Errorf("exposed pair CollidedTx = %d of %d transmissions — deferral should prevent most overlap",
			exposedM.CollidedTx, exposedM.TxCount)
	}
	if farM.CollidedTx != 0 {
		t.Errorf("decoupled pair CollidedTx = %d, want 0 (pure spatial reuse)", farM.CollidedTx)
	}
}

// TestAirtimeLedgerConservedSpatial checks the ledger's exact
// accounting under concurrent spatial transmissions: with two
// decoupled flows overlapping freely on the air, every nanosecond is
// still attributed exactly once — busy + idle == elapsed.
func TestAirtimeLedgerConservedSpatial(t *testing.T) {
	e := spatialEnv(9)
	ledger := trace.NewAirtimeLedger()
	e.medium.Tracer = ledger
	a := e.station(Config{Addr: 1, DataRate: phy.RateA24})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA24, Pos: channel.Pos{X: -30}})
	c := e.station(Config{Addr: 3, DataRate: phy.RateA24, Pos: channel.Pos{X: 300}})
	d := e.station(Config{Addr: 4, DataRate: phy.RateA24, Pos: channel.Pos{X: 330}})
	_, _ = b, d
	saturate(a, 2, 2000)
	saturate(c, 4, 2000)
	e.sched.RunUntil(200 * sim.Millisecond)

	rep := ledger.Snapshot(e.sched.Now())
	if !rep.Conserved() {
		t.Fatalf("ledger not conserved: busy %v + idle %v != elapsed %v",
			rep.Busy(), rep.Idle, rep.Elapsed)
	}
	if rep.Idle == 0 || rep.Busy() == 0 {
		t.Errorf("degenerate report: busy %v idle %v", rep.Busy(), rep.Idle)
	}
	// The ledger sits on the medium alone, yet each frame is booked to
	// its sender and class: the stations stage tx_start for the
	// medium's tracer, not their own.
	for _, sa := range rep.Stations {
		if sa.Station != 1 && sa.Station != 3 && sa.Data > 0 {
			t.Errorf("station %d booked %v of data airtime; only 1 and 3 send data", sa.Station, sa.Data)
		}
		if (sa.Station == 2 || sa.Station == 4) && sa.WifiAck == 0 {
			t.Errorf("receiver %d booked no ACK airtime", sa.Station)
		}
	}
	// Concurrency really happened: with decoupled flows the summed
	// attributed airtime of a serial medium would exceed what one
	// collision domain could carry, yet the ledger still conserves.
	if e.medium.CollidedTx != 0 {
		t.Errorf("decoupled flows collided %d times", e.medium.CollidedTx)
	}
}
