package hack

import (
	"testing"

	"tcphack/internal/mac"
	"tcphack/internal/packet"
	"tcphack/internal/sim"
)

const peerAP = mac.Addr(1)

// harness wires a client driver to an AP driver directly (no MAC):
// payloads built by the client can be delivered to or withheld from
// the AP, modelling link-layer ACK loss precisely.
type harness struct {
	sched  *sim.Scheduler
	client *Driver
	ap     *Driver

	nativeQueue []*packet.Packet // client's native transmissions
	forwarded   []*packet.Packet // ACKs the AP forwarded upstream
}

func newHarness(mode Mode) *harness {
	h := &harness{sched: sim.NewScheduler(1)}
	h.client = NewDriver(h.sched, Config{Mode: mode})
	h.ap = NewDriver(h.sched, Config{Mode: mode})
	h.client.EnqueueNative = func(dst mac.Addr, p *packet.Packet) bool {
		h.nativeQueue = append(h.nativeQueue, p)
		return true
	}
	h.client.ForwardUp = func(mac.Addr, *packet.Packet) {}
	h.ap.EnqueueNative = func(mac.Addr, *packet.Packet) bool { return true }
	h.ap.ForwardUp = func(_ mac.Addr, p *packet.Packet) {
		h.forwarded = append(h.forwarded, p)
	}
	return h
}

// deliverNative moves queued native ACKs to the AP and reports their
// delivery back to the client driver (as the MAC would).
func (h *harness) deliverNative() {
	for _, p := range h.nativeQueue {
		h.ap.ObserveNativeAck(p)
		h.client.NativeResolved(peerAP, p, true)
	}
	h.nativeQueue = nil
}

// ack builds the flow's next pure ACK.
type ackGen struct {
	ack uint32
	id  uint16
}

func (g *ackGen) next(advance uint32) *packet.Packet { return g.from(nil, advance) }

// from is next on a packet drawn from pool.
func (g *ackGen) from(pool *packet.Pool, advance uint32) *packet.Packet {
	g.ack += advance
	g.id++
	p := pool.Get(packet.ProtoTCP)
	p.IP.TTL, p.IP.ID = 64, g.id
	p.IP.Src, p.IP.Dst = packet.IP(192, 168, 0, 10), packet.IP(10, 0, 0, 1)
	t := p.TCP
	t.SrcPort, t.DstPort, t.Seq, t.Ack = 5555, 80, 1, g.ack
	t.Flags, t.Window = packet.FlagACK, 512
	return p
}

// indicate delivers a data indication to the client driver.
func (h *harness) indicate(more, sync, progress bool) {
	h.client.DataIndication(peerAP, mac.DataInd{MoreData: more, Sync: sync, Progress: progress, MPDUs: 2})
}

// llack builds the client's LL ACK payload and optionally delivers it.
func (h *harness) llack(deliver bool) []byte {
	payload := h.client.BuildAckPayload(nil, peerAP)
	if deliver && len(payload) > 0 {
		h.ap.AckPayloadReceived(0, payload)
	}
	return payload
}

func (h *harness) advance(d sim.Duration) {
	h.sched.RunUntil(h.sched.Now() + d)
}

func TestNoContextGoesNative(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := &ackGen{ack: 1000}
	h.indicate(true, false, true) // MORE DATA latched
	h.client.SubmitAck(peerAP, g.next(2920))
	// First ACK of the flow: no compression context → native.
	if len(h.nativeQueue) != 1 {
		t.Fatalf("native queue %d, want 1 (context bootstrap)", len(h.nativeQueue))
	}
	if h.client.PendingAcks(peerAP) != 0 {
		t.Error("ACK held despite missing context")
	}
	h.deliverNative()
	// Now the context exists: next ACK is held.
	h.client.SubmitAck(peerAP, g.next(2920))
	if h.client.PendingAcks(peerAP) != 1 {
		t.Fatalf("pending = %d, want 1", h.client.PendingAcks(peerAP))
	}
	if len(h.nativeQueue) != 0 {
		t.Error("held ACK also sent natively")
	}
}

func TestMoreDataLatchOff(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := &ackGen{ack: 1000}
	// Latch never set: everything native.
	h.client.SubmitAck(peerAP, g.next(2920))
	h.deliverNative()
	h.client.SubmitAck(peerAP, g.next(2920))
	h.deliverNative()
	if got := h.client.Acct.NativeAcks; got != 2 {
		t.Errorf("native acks = %d, want 2", got)
	}
	if h.client.PendingAcks(peerAP) != 0 {
		t.Error("pending should be empty without the latch")
	}
}

// setupSteady bootstraps context and latch, returning a generator.
func setupSteady(h *harness) *ackGen {
	g := &ackGen{ack: 1000}
	h.indicate(true, false, true)
	h.client.SubmitAck(peerAP, g.next(2920)) // native bootstrap
	h.deliverNative()
	return g
}

func TestSteadyStatePiggyback(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	// Batch N's ACKs arrive, DMA completes, batch N+1 arrives, its
	// Block ACK carries them (paper Figure 2).
	h.client.SubmitAck(peerAP, g.next(2920))
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond) // DMA latency
	h.indicate(true, false, true)
	payload := h.llack(true)
	if len(payload) == 0 {
		t.Fatal("no payload on Block ACK")
	}
	if len(h.forwarded) != 2 {
		t.Fatalf("AP forwarded %d ACKs, want 2", len(h.forwarded))
	}
	if h.forwarded[1].TCP.Ack != g.ack {
		t.Errorf("reconstructed ack = %d, want %d", h.forwarded[1].TCP.Ack, g.ack)
	}
	if h.client.UnconfirmedAcks(peerAP) != 2 {
		t.Errorf("unconfirmed = %d, want 2 (retained until progress)", h.client.UnconfirmedAcks(peerAP))
	}
	// Next batch arrives (progress): retained state clears.
	h.indicate(true, false, true)
	if h.client.UnconfirmedAcks(peerAP) != 0 {
		t.Error("unconfirmed not cleared on progress")
	}
}

func TestDMARaceNotReady(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	// Data arrives immediately: DMA (20 µs) has not completed, so the
	// LL ACK goes out empty (the NIC's ready check fails, Figure 4).
	h.indicate(true, false, true)
	payload := h.llack(true)
	if len(payload) != 0 {
		t.Fatalf("payload %d bytes despite DMA race, want 0", len(payload))
	}
	if len(h.forwarded) != 0 {
		t.Error("AP got ACKs that were not ready")
	}
	// The ACK is still pending and rides the next opportunity.
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	if p := h.llack(true); len(p) == 0 {
		t.Fatal("ready ACK did not ride the next LL ACK")
	}
	if len(h.forwarded) != 1 {
		t.Errorf("forwarded %d, want 1", len(h.forwarded))
	}
}

func TestBlockAckLossRetention(t *testing.T) {
	// Paper Figure 5(a): the Block ACK carrying compressed ACKs is
	// lost; the client retains them and the next Block ACK carries
	// them again; MSN dedup at the AP absorbs any duplicates.
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	h.llack(false) // LOST
	if h.client.UnconfirmedAcks(peerAP) != 1 {
		t.Fatal("state not retained after loss")
	}
	// The AP did not get the Block ACK, so it sends a BAR; the MAC
	// calls BuildAckPayload again for the BAR response.
	h.llack(true)
	if len(h.forwarded) != 1 {
		t.Fatalf("forwarded %d after BAR response, want 1", len(h.forwarded))
	}
	// Progress on the next batch clears it.
	h.indicate(true, false, true)
	if h.client.UnconfirmedAcks(peerAP) != 0 {
		t.Error("unconfirmed survives progress")
	}
}

func TestDuplicatePayloadDedup(t *testing.T) {
	// Paper Figure 6: the AP re-requests via BAR although it already
	// received the ACKs; the re-sent payload must dedup, not corrupt.
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	h.llack(true) // delivered
	if len(h.forwarded) != 1 {
		t.Fatal("setup")
	}
	// No progress indication (AP's next data frame was lost); a BAR
	// arrives instead and the client re-appends the same ACKs.
	h.llack(true)
	if len(h.forwarded) != 1 {
		t.Fatalf("duplicate delivered %d times", len(h.forwarded))
	}
	if h.ap.DecompDuplicates != 1 {
		t.Errorf("dedup count = %d, want 1", h.ap.DecompDuplicates)
	}
	if h.ap.DecompFailures != 0 {
		t.Errorf("failures = %d, want 0", h.ap.DecompFailures)
	}
}

func TestSyncRetainsState(t *testing.T) {
	// Paper Figure 8: repeated Block ACK loss exhausts the AP's BAR
	// retries; the AP moves on, setting SYNC. The client must retain
	// its compressed ACKs despite the new data frame, and append them
	// to the next Block ACK.
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	h.llack(false) // lost
	h.llack(false) // BAR response lost too (repeatedly)
	h.llack(false)
	// AP gives up, sends next batch with SYNC: retained state must
	// survive even though the frame would otherwise signal progress.
	h.indicate(true, true, true)
	if h.client.UnconfirmedAcks(peerAP) != 2 {
		t.Fatalf("unconfirmed = %d after SYNC, want 2", h.client.UnconfirmedAcks(peerAP))
	}
	payload := h.llack(true)
	if len(payload) == 0 {
		t.Fatal("retained ACKs did not ride post-SYNC Block ACK")
	}
	if len(h.forwarded) != 2 {
		t.Errorf("forwarded %d, want 2", len(h.forwarded))
	}
}

// TestConsecutiveBlockAckLossResync reproduces the historical
// MORE-DATA collapse trigger: two consecutive Block ACK generations
// lost (the Block ACK and every BAR-elicited re-send of it, twice
// over). The first SYNC retains state per Figure 8; the second must
// abandon the chain — replaying the newest retained ACK natively —
// and the chain must reopen losslessly with an IR refresh.
func TestConsecutiveBlockAckLossResync(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	h.llack(false) // Block ACK generation 1 lost
	h.llack(false) // ... and its BAR-elicited re-sends
	h.llack(false)
	h.indicate(true, true, true) // first SYNC: Figure 8 retention
	if h.client.UnconfirmedAcks(peerAP) != 2 {
		t.Fatalf("unconfirmed = %d after first SYNC, want 2", h.client.UnconfirmedAcks(peerAP))
	}
	h.llack(false)               // Block ACK generation 2 lost too
	h.indicate(true, true, true) // second SYNC: chain abandoned
	if h.client.UnconfirmedAcks(peerAP) != 0 || h.client.PendingAcks(peerAP) != 0 {
		t.Fatalf("held state survives double BA gap: unconf=%d pending=%d",
			h.client.UnconfirmedAcks(peerAP), h.client.PendingAcks(peerAP))
	}
	if got := h.client.PeerState(peerAP); got != StateResyncing {
		t.Fatalf("state = %v after double BA gap, want %v", got, StateResyncing)
	}
	if h.client.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", h.client.Resyncs)
	}
	// Conservative replay: the newest retained ACK re-anchors natively.
	if len(h.nativeQueue) != 1 || h.nativeQueue[0].TCP.Ack != g.ack {
		t.Fatalf("replay queue = %d (want 1 native carrying ack %d)", len(h.nativeQueue), g.ack)
	}
	h.deliverNative()
	// The chain reopens on the next held ACK and stays lossless.
	h.client.SubmitAck(peerAP, g.next(2920))
	if got := h.client.PeerState(peerAP); got != StateCompressing {
		t.Fatalf("state = %v after reopen, want %v", got, StateCompressing)
	}
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	if p := h.llack(true); len(p) == 0 {
		t.Fatal("reopened chain produced no payload")
	}
	if h.ap.DecompFailures != 0 {
		t.Fatalf("decompression failures after double-loss recovery: %d", h.ap.DecompFailures)
	}
	if h.ap.ResyncNeeded() {
		t.Error("AP decompressor reports damaged context after recovery")
	}
	if n := len(h.forwarded); n == 0 || h.forwarded[n-1].TCP.Ack != g.ack {
		t.Errorf("post-resync ACK not reconstructed (forwarded %d)", n)
	}
}

// TestResyncReopenBeforeReplayArrives pins the reorder race behind the
// residual collapse failures: the resync's native replay is parked (a
// reorder buffer, a lost frame — here simply never delivered) while
// the reopened chain's first Block ACK arrives. The IR refresh must
// carry the chain on its own; the decompressor never sees the native.
func TestResyncReopenBeforeReplayArrives(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	h.llack(false)
	h.indicate(true, true, true) // SYNC 1: retain
	h.llack(false)
	h.indicate(true, true, true) // SYNC 2: resync, replay queued
	if len(h.nativeQueue) == 0 {
		t.Fatal("no native replay")
	}
	// Replay NOT delivered: the decompressor's context is stale.
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	if p := h.llack(true); len(p) == 0 {
		t.Fatal("no payload from reopened chain")
	}
	if h.ap.DecompFailures != 0 {
		t.Fatalf("IR reopen not self-contained: %d failures (crc=%d noctx=%d)",
			h.ap.DecompFailures, h.ap.FailCRC, h.ap.FailNoContext)
	}
	if n := len(h.forwarded); n == 0 || h.forwarded[n-1].TCP.Ack != g.ack {
		t.Fatalf("reopened chain's ACK not delivered (forwarded %d)", n)
	}
}

// TestPayloadBudgetGuard: retained state that would push one
// link-layer ACK past the MAC's timeout allowance must trigger a
// resync instead of emitting a frame the peer would time out on — the
// positive feedback loop behind the collapse.
func TestPayloadBudgetGuard(t *testing.T) {
	h := newHarness(ModeMoreData)
	h.client.cfg.MaxPayload = 48
	g := setupSteady(h)
	for i := 0; i < 16; i++ { // ≈16 × (4-5 B) ≫ 48 B budget
		h.client.SubmitAck(peerAP, g.next(2920))
	}
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	if p := h.llack(true); p != nil {
		t.Fatalf("over-budget frame emitted (%d bytes)", len(p))
	}
	if h.client.PeerState(peerAP) != StateResyncing || h.client.Resyncs != 1 {
		t.Fatalf("budget violation did not resync (state=%v resyncs=%d)",
			h.client.PeerState(peerAP), h.client.Resyncs)
	}
	// Every held ACK was replayed natively — nothing is lost to TCP.
	if len(h.nativeQueue) == 0 {
		t.Fatal("budget resync replayed nothing")
	}
	last := h.nativeQueue[len(h.nativeQueue)-1]
	if last.TCP.Ack != g.ack {
		t.Errorf("replay tip ack = %d, want %d", last.TCP.Ack, g.ack)
	}
}

// TestMSNWindowGuard: a retained generation spanning close to the
// decompressor's 7-bit duplicate window must re-anchor before a stale
// re-ride could wrap into the "fresh" half and poison the context.
func TestMSNWindowGuard(t *testing.T) {
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	for i := 0; i < 125; i++ {
		h.client.SubmitAck(peerAP, g.next(2920))
	}
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	if p := h.llack(true); p != nil {
		t.Fatalf("window-spanning frame emitted (%d bytes)", len(p))
	}
	if h.client.Resyncs != 1 {
		t.Fatalf("MSN window violation did not resync (resyncs=%d)", h.client.Resyncs)
	}
	if h.ap.DecompFailures != 0 {
		t.Errorf("failures: %d", h.ap.DecompFailures)
	}
}

func TestNoMoreDataFlushes(t *testing.T) {
	// Paper Figure 7: the final batch carries no MORE DATA. Ready ACKs
	// ride its Block ACK unretained; if that is lost, state is cleared
	// and later ACKs travel natively (cumulative ACKs absorb the gap).
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(false, false, true) // final batch: no MORE DATA
	payload := h.llack(false)      // Block ACK lost
	if len(payload) == 0 {
		t.Fatal("ready ACK should still ride the final Block ACK")
	}
	if h.client.UnconfirmedAcks(peerAP) != 0 {
		t.Error("state retained despite no-MORE-DATA (Figure 7 requires clearing)")
	}
	// The clear is accompanied by one native re-sync duplicate of the
	// newest cleared ACK, so the compression chain cannot silently gap.
	if len(h.nativeQueue) != 1 {
		t.Fatalf("resync dup not sent (queue %d)", len(h.nativeQueue))
	}
	// ACKs generated after the latch dropped travel natively.
	h.client.SubmitAck(peerAP, g.next(2920))
	if len(h.nativeQueue) != 2 {
		t.Fatalf("post-latch ACK not native (queue %d)", len(h.nativeQueue))
	}
}

func TestNoMoreDataDMARaceFallsBackToNative(t *testing.T) {
	// The Figure 3/4 race: ACKs not yet DMA-visible when the final
	// (no-MORE-DATA) frame's LL ACK goes out are re-enqueued natively.
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	h.client.SubmitAck(peerAP, g.next(2920))
	h.indicate(false, false, true) // immediately: DMA not complete
	payload := h.llack(true)
	if len(payload) != 0 {
		t.Fatal("not-ready ACK rode the LL ACK")
	}
	if len(h.nativeQueue) != 1 {
		t.Fatalf("native fallback queue = %d, want 1", len(h.nativeQueue))
	}
	if h.client.PendingAcks(peerAP) != 0 {
		t.Error("pending not drained by native fallback")
	}
}

func TestTimerModeFlushes(t *testing.T) {
	h := newHarness(ModeTimer)
	g := &ackGen{ack: 1000}
	h.client.SubmitAck(peerAP, g.next(2920)) // native bootstrap
	h.deliverNative()
	h.client.SubmitAck(peerAP, g.next(2920))
	if h.client.PendingAcks(peerAP) != 1 {
		t.Fatal("timer mode did not hold the ACK")
	}
	// No piggyback opportunity: the hold timer flushes it natively.
	h.advance(10 * sim.Millisecond)
	if h.client.PendingAcks(peerAP) != 0 {
		t.Fatal("hold timer never flushed")
	}
	if len(h.nativeQueue) != 1 {
		t.Fatalf("flushed natively %d, want 1", len(h.nativeQueue))
	}
	// With an opportunity inside the window, it rides instead.
	h.deliverNative()
	h.client.SubmitAck(peerAP, g.next(2920))
	h.advance(50 * sim.Microsecond)
	payload := h.llack(true)
	if len(payload) == 0 {
		t.Fatal("timer-held ACK did not ride opportunity")
	}
	h.advance(20 * sim.Millisecond)
	if len(h.nativeQueue) != 0 {
		t.Error("ridden ACK also flushed natively")
	}
}

func TestOpportunisticWithdrawal(t *testing.T) {
	h := newHarness(ModeOpportunistic)
	withdrawn := 0
	h.client.WithdrawNative = func(dst mac.Addr, p *packet.Packet) bool {
		for i, q := range h.nativeQueue {
			if q == p {
				h.nativeQueue = append(h.nativeQueue[:i], h.nativeQueue[i+1:]...)
				withdrawn++
				return true
			}
		}
		return false
	}
	g := &ackGen{ack: 1000}
	h.client.SubmitAck(peerAP, g.next(2920)) // bootstrap: native only
	h.deliverNative()
	h.client.SubmitAck(peerAP, g.next(2920))
	// Both paths armed: one native copy queued, one compressed pending.
	if len(h.nativeQueue) != 1 || h.client.PendingAcks(peerAP) != 1 {
		t.Fatalf("native=%d pending=%d, want 1/1", len(h.nativeQueue), h.client.PendingAcks(peerAP))
	}
	// Data beats the native copy: payload rides, native withdrawn.
	h.advance(50 * sim.Microsecond)
	payload := h.llack(true)
	if len(payload) == 0 {
		t.Fatal("opportunistic ACK did not ride")
	}
	if withdrawn != 1 || len(h.nativeQueue) != 0 {
		t.Errorf("withdrawn=%d queue=%d, want 1/0", withdrawn, len(h.nativeQueue))
	}
	if len(h.forwarded) != 1 {
		t.Errorf("forwarded %d, want 1", len(h.forwarded))
	}
}

func TestAccountingTable2Shape(t *testing.T) {
	// In steady state virtually all ACKs travel compressed at ~4-6
	// bytes each (the paper's Table 2 shape: 10 native vs 9050
	// compressed, ratio ≈12 with timestamp-bearing ACKs).
	h := newHarness(ModeMoreData)
	g := setupSteady(h)
	for batch := 0; batch < 100; batch++ {
		h.client.SubmitAck(peerAP, g.next(2920))
		h.client.SubmitAck(peerAP, g.next(2920))
		h.advance(time50())
		h.indicate(true, false, true)
		h.llack(true)
	}
	a := &h.client.Acct
	// One bootstrap native plus U-mode periodic refresh duplicates
	// (one per 200 ridden ACKs in this 200-ACK fixture).
	if a.NativeAcks < 1 || a.NativeAcks > 3 {
		t.Errorf("native = %d, want 1-3 (bootstrap + refresh)", a.NativeAcks)
	}
	if a.CompressedAcks != 200 {
		t.Errorf("compressed = %d, want 200", a.CompressedAcks)
	}
	perAck := float64(a.CompressedBytes) / float64(a.CompressedAcks)
	if perAck > 6 {
		t.Errorf("compressed bytes/ACK = %.1f, want ≤6", perAck)
	}
	if r := a.CompressionRatio(); r < 6 {
		t.Errorf("ratio = %.1f, want ≥6 (no timestamps in fixture)", r)
	}
	if h.ap.DecompFailures != 0 {
		t.Errorf("decompression failures: %d", h.ap.DecompFailures)
	}
	if len(h.forwarded) != 200 {
		t.Errorf("forwarded %d of 200", len(h.forwarded))
	}
}

func time50() sim.Duration { return 50 * sim.Microsecond }

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeOff, ModeMoreData, ModeOpportunistic, ModeTimer} {
		if m.String() == "" {
			t.Errorf("mode %d empty string", int(m))
		}
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode empty string")
	}
}

func TestSubmitNonAckPanics(t *testing.T) {
	h := newHarness(ModeMoreData)
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-ACK packet")
		}
	}()
	h.client.SubmitAck(peerAP, &packet.Packet{
		IP:  packet.IPv4{Protocol: packet.ProtoTCP},
		TCP: &packet.TCP{Flags: packet.FlagSYN},
	})
}

// TestOpportunisticPayloadBudget: opportunistic rides must respect the
// same MaxPayload budget as the holding modes (the MAC's ACK-timeout
// allowance is sized to it). Copies beyond the budget keep their
// native twins queued and ride later — nothing is withdrawn and then
// dropped.
func TestOpportunisticPayloadBudget(t *testing.T) {
	h := newHarness(ModeOpportunistic)
	h.client.cfg.MaxPayload = 64 // opportunistic copies are ~30 B IRs
	withdraw := func(dst mac.Addr, p *packet.Packet) bool {
		for i, q := range h.nativeQueue {
			if q == p {
				h.nativeQueue = append(h.nativeQueue[:i], h.nativeQueue[i+1:]...)
				return true
			}
		}
		return false
	}
	h.client.WithdrawNative = withdraw
	g := &ackGen{ack: 1000}
	h.client.SubmitAck(peerAP, g.next(2920)) // bootstrap
	h.deliverNative()
	for i := 0; i < 6; i++ {
		h.client.SubmitAck(peerAP, g.next(2920))
	}
	h.advance(50 * sim.Microsecond)
	payload := h.llack(true)
	if len(payload) == 0 || len(payload) > 64 {
		t.Fatalf("payload %d bytes, want (0, 64]", len(payload))
	}
	// Every ACK that did not ride still has its native copy queued.
	if len(h.forwarded)+len(h.nativeQueue) != 6 {
		t.Fatalf("rode %d + native %d, want 6 total", len(h.forwarded), len(h.nativeQueue))
	}
	if len(h.nativeQueue) == 0 {
		t.Fatal("budget did not block anything; test too weak")
	}
	if h.ap.DecompFailures != 0 {
		t.Errorf("failures: %d", h.ap.DecompFailures)
	}
}

// cycler runs the driver pair's steady state on recycled packets: both
// drivers share a pool, and the AP releases every ACK it forwards.
type cycler struct {
	h         *harness
	pool      *packet.Pool
	g         ackGen
	buf       []byte // the link-layer ACK's payload buffer
	forwarded int
}

func newCycler() *cycler {
	c := &cycler{h: newHarness(ModeMoreData), pool: &packet.Pool{}, g: ackGen{ack: 1000}}
	h := c.h
	h.client.Pool, h.ap.Pool = c.pool, c.pool
	h.ap.ForwardUp = func(_ mac.Addr, p *packet.Packet) {
		c.forwarded++
		p.Release()
	}
	h.indicate(true, false, true)
	h.client.SubmitAck(peerAP, c.g.from(c.pool, 2920)) // native bootstrap
	h.deliverNative()
	return c
}

// run is one round: the client holds two ACKs, their DMA latency
// passes, the next batch's data indication confirms the previous
// payload, and the client's link-layer ACK payload, built into the
// reused buffer, reaches the AP.
func (c *cycler) run() {
	h := c.h
	h.client.SubmitAck(peerAP, c.g.from(c.pool, 2920))
	h.client.SubmitAck(peerAP, c.g.from(c.pool, 2920))
	h.advance(50 * sim.Microsecond)
	h.indicate(true, false, true)
	c.buf = h.client.BuildAckPayload(c.buf[:0], peerAP)
	h.ap.AckPayloadReceived(0, c.buf)
}

// TestDriverCycleAllocFree pins the driver pair's hold →
// BuildAckPayload → AckPayloadReceived cycle at zero allocations once
// warm: held ACKs keep their bytes in the per-peer lists' arrays, the
// payload is appended into the caller's buffer, and the decompressor
// reuses its packet list and draws from the pool.
func TestDriverCycleAllocFree(t *testing.T) {
	c := newCycler()
	c.run()
	if n := testing.AllocsPerRun(200, c.run); n != 0 {
		t.Errorf("hold → BuildAckPayload → AckPayloadReceived: %v allocs per cycle, want 0", n)
	}
	if want := 2 * 202; c.forwarded != want || c.h.ap.DecompFailures != 0 {
		t.Errorf("AP forwarded %d ACKs with %d failures, want %d and 0", c.forwarded, c.h.ap.DecompFailures, want)
	}
	if n := c.pool.Outstanding(); n != 3 {
		t.Errorf("%d packets outstanding, want 3 (the bootstrap and the two unconfirmed)", n)
	}
}

// BenchmarkDriverCycle measures one cycler round: two ACKs held,
// compressed, carried and reconstructed.
func BenchmarkDriverCycle(b *testing.B) {
	c := newCycler()
	c.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run()
	}
}

// PeerState reports the recovery-machine state toward peer (tests and
// diagnostics).
func (d *Driver) PeerState(peer mac.Addr) RecoveryState { return d.peer(peer).state }

// ResyncNeeded reports whether this driver's decompressor holds a
// damaged flow context awaiting a native re-anchor (§3.4 health
// probe; healthy runs report false throughout).
func (d *Driver) ResyncNeeded() bool { return d.dec.ResyncNeeded() }
