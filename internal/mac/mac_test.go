package mac

import (
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/packet"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// udpMSDU builds an MSDU whose IP datagram totals ipLen bytes, tagged
// with id in the IP header for order tracking.
func udpMSDU(src, dst Addr, ipLen int, id uint16) *MSDU {
	return &MSDU{
		Src: src, Dst: dst,
		Packet: &packet.Packet{
			IP:         packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64, ID: id},
			UDP:        &packet.UDP{SrcPort: 1, DstPort: 2},
			PayloadLen: ipLen - packet.IPv4HeaderLen - packet.UDPHeaderLen,
		},
	}
}

type env struct {
	sched  *sim.Scheduler
	medium *channel.Medium
}

func newEnv(seed int64, model channel.ErrorModel) *env {
	s := sim.NewScheduler(seed)
	return &env{sched: s, medium: channel.New(s, model)}
}

func (e *env) station(cfg Config) *Station {
	return NewStation(e.sched, e.medium, cfg)
}

func collectIDs(st *Station) *[]uint16 {
	ids := &[]uint16{}
	st.Deliver = func(m *MSDU) { *ids = append(*ids, m.Packet.IP.ID) }
	return ids
}

func TestSinglePacketTiming(t *testing.T) {
	e := newEnv(1, nil)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	var deliveredAt sim.Time = -1
	b.Deliver = func(m *MSDU) { deliveredAt = e.sched.Now() }
	a.Enqueue(udpMSDU(1, 2, 1500, 0))
	e.sched.RunUntil(10 * sim.Millisecond)
	// Idle medium, no backoff owed: TX at DIFS (34 µs); 1536-byte MPDU
	// at 54 Mbps lasts 248 µs → delivery at 282 µs.
	want := phy.DIFS + phy.FrameDuration(phy.RateA54, 1536)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if a.Stats.MPDUsDelivered != 1 || a.Stats.DeliveredFirstTry != 1 {
		t.Errorf("sender stats: %+v", a.Stats)
	}
	if b.Stats.AcksSent != 1 {
		t.Errorf("AcksSent = %d, want 1", b.Stats.AcksSent)
	}
	if a.Backlogged() {
		t.Error("sender still backlogged")
	}
}

func TestSaturatedThroughput80211a(t *testing.T) {
	e := newEnv(2, nil)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	bytes := 0
	b.Deliver = func(m *MSDU) { bytes += m.Len() }
	for i := 0; i < 5000; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	dur := sim.Time(500 * sim.Millisecond)
	e.sched.RunUntil(dur)
	mbps := float64(bytes) * 8 / dur.Seconds() / 1e6
	// Analytical 802.11a capacity at 54 Mbps with 1500-byte IP packets:
	// DIFS(34) + E[backoff](67.5) + data(248) + SIFS(16) + ACK@24(28)
	// = 393.5 µs per 1500 bytes → ≈30.5 Mbps.
	if mbps < 28.5 || mbps > 32 {
		t.Errorf("saturated goodput = %.1f Mbps, want ≈30.5", mbps)
	}
}

func TestDeliveryInOrderNoLoss(t *testing.T) {
	e := newEnv(3, nil)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	ids := collectIDs(b)
	for i := 0; i < 200; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(sim.Second)
	if len(*ids) != 200 {
		t.Fatalf("delivered %d, want 200", len(*ids))
	}
	for i, id := range *ids {
		if id != uint16(i) {
			t.Fatalf("out of order at %d: got %d", i, id)
		}
	}
}

func TestRetryAndDedup(t *testing.T) {
	model := &channel.FixedLoss{Default: 0.4}
	e := newEnv(4, model)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	ids := collectIDs(b)
	n := 300
	for i := 0; i < n; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(3 * sim.Second)
	if a.Stats.Retries == 0 {
		t.Error("no retries under 40% loss")
	}
	// Every packet delivered exactly once, in order, despite
	// retransmissions (ACK loss causes duplicates on the air).
	seen := make(map[uint16]int)
	for _, id := range *ids {
		seen[id]++
	}
	for i := 0; i < n; i++ {
		if c := seen[uint16(i)]; c > 1 {
			t.Errorf("packet %d delivered %d times", i, c)
		}
	}
	// With retry limit 7 and 40% loss, effectively everything arrives.
	if len(*ids) < n-2 {
		t.Errorf("delivered %d of %d", len(*ids), n)
	}
	prev := -1
	for _, id := range *ids {
		if int(id) <= prev {
			t.Fatalf("out of order: %d after %d", id, prev)
		}
		prev = int(id)
	}
}

func TestRetryLimitExpiry(t *testing.T) {
	model := &channel.FixedLoss{Default: 1.0}
	e := newEnv(5, model)
	rec := trace.NewRecorder(0)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54, RetryLimit: 3, Tracer: rec})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	ids := collectIDs(b)
	var resolved []bool
	a.OnMSDUResolved = func(_ *MSDU, delivered bool) { resolved = append(resolved, delivered) }
	a.Enqueue(udpMSDU(1, 2, 1500, 0))
	e.sched.RunUntil(sim.Second)
	if len(*ids) != 0 {
		t.Error("delivered through a fully lossy channel")
	}
	if a.Stats.Expired != 1 {
		t.Errorf("Expired = %d, want 1", a.Stats.Expired)
	}
	// Initial + 3 retries = 4 attempts.
	if a.Stats.FramesSent != 4 {
		t.Errorf("FramesSent = %d, want 4", a.Stats.FramesSent)
	}
	if a.Backlogged() {
		t.Error("still backlogged after expiry")
	}
	// The drop resolves the MSDU once, as undelivered, and leaves a
	// fresh contention window for the next one.
	if a.dcf.cw != a.cfg.CWMin {
		t.Errorf("contention window %d after the drop, want CWMin %d", a.dcf.cw, a.cfg.CWMin)
	}
	if len(resolved) != 1 || resolved[0] {
		t.Errorf("OnMSDUResolved reported %v, want one undelivered MSDU", resolved)
	}
	fates := map[string]int{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindMPDUFate {
			fates[ev.Fate]++
		}
	}
	if fates["expired"] != 1 || fates["retry"] != 3 || len(fates) != 2 {
		t.Errorf("mpdu_fate events %v, want 3 retry and 1 expired", fates)
	}
}

func htConfig(addr Addr) Config {
	return Config{
		Addr:        addr,
		DataRate:    phy.HTRate(7, 1),
		AIFSN:       3,
		Aggregation: true,
		TXOPLimit:   4 * sim.Millisecond,
	}
}

func TestAggregationBatch(t *testing.T) {
	e := newEnv(6, nil)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	ids := collectIDs(b)
	for i := 0; i < 100; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(100 * sim.Millisecond)
	if len(*ids) != 100 {
		t.Fatalf("delivered %d, want 100", len(*ids))
	}
	// 100 packets at 42 per 64 KB A-MPDU → 3 data PPDUs.
	if a.Stats.FramesSent != 3 {
		t.Errorf("FramesSent = %d, want 3 (42+42+16)", a.Stats.FramesSent)
	}
	if b.Stats.BlockAcksSent != 3 {
		t.Errorf("BlockAcksSent = %d, want 3", b.Stats.BlockAcksSent)
	}
	for i, id := range *ids {
		if id != uint16(i) {
			t.Fatalf("out of order at %d: %d", i, id)
		}
	}
}

func TestAggregatedThroughput80211n(t *testing.T) {
	e := newEnv(7, nil)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	bytes := 0
	b.Deliver = func(m *MSDU) { bytes += m.Len() }
	for i := 0; i < 20000; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	dur := sim.Time(500 * sim.Millisecond)
	e.sched.RunUntil(dur)
	mbps := float64(bytes) * 8 / dur.Seconds() / 1e6
	// Cycle: AIFS(43) + E[bo](67.5) + A-MPDU(42×1542B ≈ 3492 µs) +
	// SIFS + BA@24(32) ≈ 3650 µs per 63 KB → ≈138 Mbps.
	if mbps < 130 || mbps > 146 {
		t.Errorf("aggregated goodput = %.1f Mbps, want ≈138", mbps)
	}
}

func TestPartialAMPDULossSelectiveRetransmit(t *testing.T) {
	model := &channel.FixedLoss{Default: 0.3}
	e := newEnv(8, model)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	ids := collectIDs(b)
	n := 500
	for i := 0; i < n; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(2 * sim.Second)
	if len(*ids) < n-5 {
		t.Fatalf("delivered %d of %d", len(*ids), n)
	}
	if a.Stats.Retries == 0 {
		t.Error("no selective retransmissions under loss")
	}
	// In-order delivery must survive selective retransmission.
	prev := -1
	dups := 0
	for _, id := range *ids {
		if int(id) <= prev {
			dups++
		} else {
			prev = int(id)
		}
	}
	if dups > 0 {
		t.Errorf("%d out-of-order/duplicate deliveries", dups)
	}
	// Efficiency: far fewer PPDUs than MPDUs (batching held up).
	if a.Stats.FramesSent*10 > a.Stats.MPDUsSent {
		t.Errorf("FramesSent=%d vs MPDUsSent=%d: batching collapsed",
			a.Stats.FramesSent, a.Stats.MPDUsSent)
	}
}

// baKiller corrupts the next `remaining` Block-ACK-sized frames
// (32 bytes without payload), leaving data and BARs untouched. It
// gives tests precise control over which link-layer ACKs are lost,
// independent of exact frame timing.
type baKiller struct{ remaining int }

func (k *baKiller) LossProb(_, _ channel.Radio, _ phy.Rate, n int) float64 {
	if n == blockAckLen && k.remaining > 0 {
		k.remaining--
		return 1
	}
	return 0
}

func TestBlockAckLossTriggersBAR(t *testing.T) {
	model := &baKiller{remaining: 1} // kill only the first Block ACK
	e := newEnv(9, model)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	ids := collectIDs(b)
	for i := 0; i < 10; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(sim.Second)
	if a.Stats.BARsSent == 0 {
		t.Error("no BAR sent after Block ACK loss")
	}
	if len(*ids) != 10 {
		t.Errorf("delivered %d of 10", len(*ids))
	}
	// The BAR-solicited Block ACK acks everything; no data retransmit
	// needed.
	if a.Stats.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (BA loss ≠ data loss)", a.Stats.Retries)
	}
	if a.Stats.AckTimeouts != 1 {
		t.Errorf("AckTimeouts = %d, want 1", a.Stats.AckTimeouts)
	}
}

// syncSniffer watches the air for data frames and records header bits.
type syncSniffer struct {
	more []bool
	sync []bool
}

func (s *syncSniffer) Position() channel.Pos { return channel.Pos{} }
func (s *syncSniffer) CarrierBusy()          {}
func (s *syncSniffer) CarrierIdle()          {}
func (s *syncSniffer) EndRx(tx *channel.Transmission, _ channel.Outcome) {
	if f, ok := tx.Frame.(*DataFrame); ok {
		s.more = append(s.more, f.MoreData)
		s.sync = append(s.sync, f.Sync)
	}
}

func TestMoreDataBit(t *testing.T) {
	e := newEnv(10, nil)
	a := e.station(htConfig(1))
	e.station(htConfig(2))
	sniff := &syncSniffer{}
	e.medium.Attach(sniff)
	for i := 0; i < 100; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(100 * sim.Millisecond)
	if len(sniff.more) != 3 {
		t.Fatalf("%d data frames, want 3", len(sniff.more))
	}
	// 42 + 42 + 16: more data pending on the first two, not the last.
	want := []bool{true, true, false}
	for i := range want {
		if sniff.more[i] != want[i] {
			t.Errorf("frame %d MoreData = %v, want %v", i, sniff.more[i], want[i])
		}
	}
}

func TestSyncBitAfterBARGiveUp(t *testing.T) {
	// Kill the data frame's Block ACK plus every BAR-solicited Block
	// ACK through the retry limit (1 + 8), then heal: the next data
	// frame must carry SYNC (paper Fig. 8).
	model := &baKiller{remaining: 9}
	e := newEnv(11, model)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	collectIDs(b)
	sniff := &syncSniffer{}
	e.medium.Attach(sniff)
	for i := 0; i < 50; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(sim.Second)
	if a.Stats.BARsSent < 8 {
		t.Errorf("BARsSent = %d, want ≥ 8 (limit exhausted)", a.Stats.BARsSent)
	}
	foundSync := false
	for i, sy := range sniff.sync {
		if sy {
			foundSync = true
			if i == 0 {
				t.Error("first frame must not carry SYNC")
			}
		}
	}
	if !foundSync {
		t.Error("no SYNC bit observed after BAR give-up")
	}
	// The retransmitted batch eventually delivers everything.
	if a.Stats.Expired > 0 {
		t.Errorf("Expired = %d MPDUs; give-up should recycle, not drop below limit", a.Stats.Expired)
	}
}

func TestTXOPLimitsAMPDUAtLowRate(t *testing.T) {
	e := newEnv(12, nil)
	cfg := htConfig(1)
	cfg.DataRate = phy.HTRate(0, 1) // 15 Mbps
	a := e.station(cfg)
	cfgB := htConfig(2)
	cfgB.DataRate = phy.HTRate(0, 1)
	b := e.station(cfgB)
	ids := collectIDs(b)
	for i := 0; i < 20; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(sim.Second)
	if len(*ids) != 20 {
		t.Fatalf("delivered %d of 20", len(*ids))
	}
	// 4 ms at 15 Mbps ≈ 7.4 KB → 4 MPDUs of 1542 B per batch.
	if a.Stats.FramesSent < 4 {
		t.Errorf("FramesSent = %d: TXOP limit not constraining batch", a.Stats.FramesSent)
	}
	perBatch := float64(a.Stats.MPDUsSent) / float64(a.Stats.FramesSent)
	if perBatch > 5 {
		t.Errorf("%.1f MPDUs per batch at 15 Mbps, want ≤ ~4.8", perBatch)
	}
}

func TestTwoContendingStations(t *testing.T) {
	e := newEnv(13, nil)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	c := e.station(Config{Addr: 3, DataRate: phy.RateA54})
	got := map[Addr]int{}
	c.Deliver = func(m *MSDU) { got[m.Src]++ }
	for i := 0; i < 2000; i++ {
		a.Enqueue(udpMSDU(1, 3, 1500, uint16(i)))
		b.Enqueue(udpMSDU(2, 3, 1500, uint16(i)))
	}
	e.sched.RunUntil(500 * sim.Millisecond)
	if got[1] == 0 || got[2] == 0 {
		t.Fatalf("deliveries %v", got)
	}
	// Rough fairness: neither starves.
	ratio := float64(got[1]) / float64(got[2])
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("fairness ratio %.2f (deliveries %v)", ratio, got)
	}
	// Contention must produce some collisions (same-slot draws).
	if e.medium.CollidedTx == 0 {
		t.Error("no collisions between two saturated stations")
	}
	// ...but collisions resolve: most MPDUs delivered.
	total := got[1] + got[2]
	if total < 1000 {
		t.Errorf("only %d delivered under contention", total)
	}
}

// payloadHooks appends a fixed payload to every LL ACK and records
// received payloads and indications.
type payloadHooks struct {
	NopHooks
	payload  []byte
	received [][]byte
	inds     []DataInd
}

func (h *payloadHooks) BuildAckPayload(dst []byte, _ Addr) []byte { return append(dst, h.payload...) }
func (h *payloadHooks) AckPayloadReceived(_ Addr, p []byte) {
	h.received = append(h.received, append([]byte(nil), p...))
}
func (h *payloadHooks) DataIndication(_ Addr, ind DataInd) {
	h.inds = append(h.inds, ind)
}

func TestHackPayloadPiggyback(t *testing.T) {
	e := newEnv(14, nil)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	collectIDs(b)
	hb := &payloadHooks{payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.Hooks = hb
	ha := &payloadHooks{}
	a.Hooks = ha
	for i := 0; i < 100; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(100 * sim.Millisecond)
	if len(ha.received) == 0 {
		t.Fatal("AP-side hook never received the piggybacked payload")
	}
	for _, p := range ha.received {
		if len(p) != 8 || p[0] != 1 || p[7] != 8 {
			t.Errorf("payload corrupted: %v", p)
		}
	}
	if b.Stats.HackPayloadsSent == 0 || b.Stats.HackBytesSent == 0 {
		t.Error("piggyback stats not counted")
	}
	if a.Stats.HackPayloadsRecvd == 0 {
		t.Error("receive stats not counted")
	}
	// Client-side indications observed MORE DATA on the first frame.
	if len(hb.inds) == 0 || !hb.inds[0].MoreData {
		t.Errorf("indications: %+v", hb.inds)
	}
	if !hb.inds[len(hb.inds)-1].Progress {
		t.Error("aggregated indication must report progress")
	}
}

// ackKiller corrupts the next `remaining` plain-ACK-sized frames.
type ackKiller struct{ remaining int }

func (k *ackKiller) LossProb(_, _ channel.Radio, _ phy.Rate, n int) float64 {
	if n == ackLen && k.remaining > 0 {
		k.remaining--
		return 1
	}
	return 0
}

func TestNonAggProgressSemantics(t *testing.T) {
	// When an ACK is lost, the sender retransmits the same sequence
	// number; the receiver's indication must report no progress for the
	// retransmission (paper Fig. 5b).
	model := &ackKiller{remaining: 1}
	e := newEnv(15, model)
	a := e.station(Config{Addr: 1, DataRate: phy.RateA54})
	b := e.station(Config{Addr: 2, DataRate: phy.RateA54})
	collectIDs(b)
	hb := &payloadHooks{}
	b.Hooks = hb
	a.Enqueue(udpMSDU(1, 2, 1500, 0))
	a.Enqueue(udpMSDU(1, 2, 1500, 1))
	e.sched.RunUntil(sim.Second)
	if len(hb.inds) < 3 {
		t.Fatalf("only %d indications", len(hb.inds))
	}
	if !hb.inds[0].Progress {
		t.Error("first frame should be progress")
	}
	if hb.inds[1].Progress {
		t.Error("retransmission of same seq must not be progress")
	}
	if !hb.inds[2].Progress {
		t.Error("next new seq must be progress")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		model := &channel.FixedLoss{Default: 0.2}
		e := newEnv(42, model)
		a := e.station(htConfig(1))
		b := e.station(htConfig(2))
		collectIDs(b)
		for i := 0; i < 500; i++ {
			a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
		}
		e.sched.RunUntil(sim.Second)
		return a.Stats.FramesSent, a.Stats.Retries, e.medium.TxCount
	}
	f1, r1, t1 := run()
	f2, r2, t2 := run()
	if f1 != f2 || r1 != r2 || t1 != t2 {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", f1, r1, t1, f2, r2, t2)
	}
}

func TestQueueLimitDrops(t *testing.T) {
	e := newEnv(16, nil)
	cfg := htConfig(1)
	cfg.QueueLimit = 10
	a := e.station(cfg)
	e.station(htConfig(2))
	accepted := 0
	for i := 0; i < 50; i++ {
		if a.Enqueue(udpMSDU(1, 2, 1500, uint16(i))) {
			accepted++
		}
	}
	if accepted != 10 {
		t.Errorf("accepted %d, want 10", accepted)
	}
	if a.Stats.QueueDrops != 40 {
		t.Errorf("QueueDrops = %d, want 40", a.Stats.QueueDrops)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if seqNext(4095) != 0 {
		t.Error("seqNext wrap")
	}
	if seqAdd(10, -20) != 4086 {
		t.Errorf("seqAdd(10,-20) = %d", seqAdd(10, -20))
	}
	if seqDiff(5, 4090) != 11 {
		t.Errorf("seqDiff wrap = %d", seqDiff(5, 4090))
	}
	if !seqLT(4090, 5) {
		t.Error("4090 < 5 across wrap")
	}
	if seqLT(5, 4090) {
		t.Error("5 !< 4090 across wrap")
	}
	if seqLT(7, 7) {
		t.Error("equal seqs not LT")
	}
}

func TestSeqWraparoundDelivery(t *testing.T) {
	// More MSDUs than the 4096 sequence space forces wraparound.
	e := newEnv(17, nil)
	a := e.station(htConfig(1))
	b := e.station(htConfig(2))
	count := 0
	last := -1
	ooo := 0
	b.Deliver = func(m *MSDU) {
		count++
		id := int(m.Packet.IP.ID)
		if id <= last && last-id < 30000 {
			ooo++
		}
		last = id
	}
	n := 6000
	for i := 0; i < n; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	e.sched.RunUntil(2 * sim.Second)
	if count != n {
		t.Fatalf("delivered %d of %d across seq wrap", count, n)
	}
	if ooo != 0 {
		t.Errorf("%d out-of-order deliveries across wrap", ooo)
	}
}

func TestAckedBitmapSemantics(t *testing.T) {
	f := &AckFrame{Block: true, StartSeq: 100, Bitmap: 0b1011}
	if !f.Acked(100) || !f.Acked(101) || f.Acked(102) || !f.Acked(103) {
		t.Error("bitmap bits misread")
	}
	if !f.Acked(50) {
		t.Error("seq before window must be implicitly acked")
	}
	if f.Acked(100 + 64) {
		t.Error("seq beyond window must not be acked")
	}
	// Wraparound window.
	g := &AckFrame{Block: true, StartSeq: 4090, Bitmap: 1 << 10}
	if !g.Acked(4) { // 4090+10 = 4 mod 4096
		t.Error("wrapped bitmap bit misread")
	}
}

func TestFrameWireLens(t *testing.T) {
	msdu := udpMSDU(1, 2, 1500, 0)
	single := &DataFrame{From: 1, To: 2, MPDUs: []*MPDU{{MSDU: msdu}}}
	if got := single.WireLen(false); got != 1536 {
		t.Errorf("legacy single = %d, want 1536", got)
	}
	if got := single.WireLen(true); got != 1538 {
		t.Errorf("ht single = %d, want 1538", got)
	}
	agg := &DataFrame{From: 1, To: 2, Aggregated: true,
		MPDUs: []*MPDU{{MSDU: msdu}, {MSDU: msdu}}}
	// Each subframe: 4 + pad4(1538) = 4 + 1540 = 1544.
	if got := agg.WireLen(true); got != 2*1544 {
		t.Errorf("ampdu = %d, want %d", got, 2*1544)
	}
	ack := &AckFrame{}
	if ack.WireLen() != 14 {
		t.Errorf("ack len %d", ack.WireLen())
	}
	ba := &AckFrame{Block: true, Payload: make([]byte, 20)}
	if ba.WireLen() != 52 {
		t.Errorf("ba+payload len %d, want 52", ba.WireLen())
	}
}

func TestStringers(t *testing.T) {
	msdu := udpMSDU(1, 2, 100, 0)
	f := &DataFrame{From: 1, To: 2, MPDUs: []*MPDU{{Seq: 7, MSDU: msdu}}, MoreData: true, Sync: true}
	if f.String() == "" {
		t.Error("DataFrame string empty")
	}
	agg := &DataFrame{From: 1, To: 2, Aggregated: true, MPDUs: []*MPDU{{Seq: 7, MSDU: msdu}}}
	if agg.String() == "" {
		t.Error("aggregated string empty")
	}
	if (&AckFrame{From: 1, To: 2}).String() == "" {
		t.Error("AckFrame string empty")
	}
	if (&AckFrame{From: 1, To: 2, Block: true}).String() == "" {
		t.Error("BlockAck string empty")
	}
	if (&BARFrame{From: 1, To: 2}).String() == "" {
		t.Error("BAR string empty")
	}
	if Addr(3).String() != "sta3" {
		t.Error("addr string")
	}
}

func BenchmarkSaturatedMAC80211n(b *testing.B) {
	e := newEnv(1, nil)
	a := e.station(htConfig(1))
	r := e.station(htConfig(2))
	r.Deliver = func(*MSDU) {}
	for i := 0; i < b.N; i++ {
		a.Enqueue(udpMSDU(1, 2, 1500, uint16(i)))
	}
	b.ResetTimer()
	e.sched.RunUntil(sim.Time(b.N) * 80 * sim.Microsecond)
}
