package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"tcphack/internal/sim"
)

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	var tr Tracer = r
	for i := 1; i <= 6; i++ {
		tr.Emit(Event{T: sim.Time(i), Kind: KindNAV, Sta: 1, Until: sim.Time(i + 10)})
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d, want 6", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := sim.Time(i + 3); e.T != want {
			t.Errorf("event %d at t=%v, want %v (oldest overwritten, order kept)", i, e.T, want)
		}
	}
}

// emitSample emits one event of every kind, in a schema-legal order,
// each built at the call the way probe sites build theirs.
func emitSample(tr Tracer) {
	tr.Emit(Event{T: 10, Kind: KindTxStart, ID: 1, Src: 1, Dst: 2, Class: ClassData.String(),
		RateKbps: 150_000, Bytes: 1500, MPDUs: 4, Retried: 1, End: 110})
	tr.Emit(Event{T: 20, Kind: KindTxStart, ID: 2, Src: 3, Dst: 1, Class: ClassAck.String(),
		RateKbps: 24_000, Bytes: 46, End: 60, Extra: 12})
	tr.Emit(Event{T: 20, Kind: KindCollision, ID: 1, ID2: 2})
	tr.Emit(Event{T: 25, Kind: KindNAV, Sta: 2, Until: 200})
	tr.Emit(Event{T: 60, Kind: KindTxEnd, ID: 2, Collided: true})
	tr.Emit(Event{T: 110, Kind: KindTxEnd, ID: 1, Collided: true})
	tr.Emit(Event{T: 110, Kind: KindRxFrame, Src: 1, Dst: 2, MPDUs: 4, Decoded: 3})
	tr.Emit(Event{T: 112, Kind: KindBAWindow, Sta: 2, Peer: 1, StartSeq: 100, Bitmap: 0xdeadbeef})
	tr.Emit(Event{T: 115, Kind: KindMPDUFate, Sta: 1, Peer: 2, Seq: 101, Retries: 1, Fate: FateRetry.String()})
	tr.Emit(Event{T: 120, Kind: KindHackState, Sta: 2, Peer: 1,
		From: StateCompressing.String(), To: StateResyncing.String(), Cause: CauseSyncGap.String()})
	tr.Emit(Event{T: 130, Kind: KindROHCPacket, Sta: 2, IR: true, Bytes: 23})
	tr.Emit(Event{T: 140, Kind: KindROHCResult, Sta: 1, Packets: 3, Dups: 1})
	tr.Emit(Event{T: 150, Kind: KindTCPRetransmit, Port: 5001, Seq: 4242})
	tr.Emit(Event{T: 160, Kind: KindTCPRTO, Port: 5001, RTO: sim.Second})
	tr.Emit(Event{T: 160, Kind: KindTCPCwnd, Port: 5001, Cwnd: 1460, Ssthresh: 14600})
}

func TestWriterValidateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	emitSample(w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Count() != 15 {
		t.Fatalf("Count = %d, want 15", w.Count())
	}
	n, err := ValidateJSONL(&buf)
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != 15 {
		t.Fatalf("validated %d events, want 15", n)
	}
}

func TestRecorderJSONLValidates(t *testing.T) {
	r := NewRecorder(0)
	emitSample(r)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if n, err := ValidateJSONL(&buf); err != nil || n != 15 {
		t.Fatalf("ValidateJSONL = %d, %v; want 15, nil", n, err)
	}
}

func TestValidateRejectsBadStreams(t *testing.T) {
	cases := map[string]string{
		"unknown kind":     `{"t":1,"kind":"warp"}`,
		"time backwards":   `{"t":5,"kind":"nav"}` + "\n" + `{"t":4,"kind":"nav"}`,
		"orphan tx_end":    `{"t":1,"kind":"tx_end","id":9}`,
		"orphan collision": `{"t":1,"kind":"collision","id":9,"id2":7}`,
		"collision with unknown id2": `{"t":1,"kind":"tx_start","id":7,"end":5}` + "\n" +
			`{"t":2,"kind":"collision","id":7,"id2":8}`,
		"double start": `{"t":1,"kind":"tx_start","id":7,"end":5}` + "\n" +
			`{"t":2,"kind":"tx_start","id":7,"end":6}`,
		"not json": `nope`,
	}
	for name, in := range cases {
		if _, err := ValidateJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

// FuzzValidateJSONL feeds arbitrary bytes to the validator, which
// must never panic. A stream it accepts must still be accepted, with
// the same count, once its events are decoded and written again
// through Writer: the schema check depends only on the decoded events.
// The seed corpus in testdata/fuzz/FuzzValidateJSONL is the sample
// stream plus each TestValidateRejectsBadStreams case.
func FuzzValidateJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		n, err := ValidateJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		sc := bufio.NewScanner(bytes.NewReader(in))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("validated line does not decode: %v", err)
			}
			w.Emit(e)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if m, err := ValidateJSONL(&out); err != nil || m != n {
			t.Fatalf("rewritten stream: ValidateJSONL = %d, %v; want %d, nil\n%s", m, err, n, out.Bytes())
		}
	})
}

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	r := NewRecorder(8)
	if got := Multi(nil, r); got != Tracer(r) {
		t.Error("Multi with one survivor should unwrap it")
	}
	r2 := NewRecorder(8)
	m := Multi(r, nil, r2)
	m.Emit(Event{T: 1, Kind: KindNAV, Sta: 1, Until: 2})
	if r.Total() != 1 || r2.Total() != 1 {
		t.Errorf("fan-out totals = %d, %d; want 1, 1", r.Total(), r2.Total())
	}
}

func TestLedgerConservationAndOverlap(t *testing.T) {
	l := NewAirtimeLedger()
	// A: data from sta 1, [100, 200]. B: ack from sta 2 with a 30 ns
	// HACK payload share, [150, 250] — overlapping A. Overlap rule:
	// A (earliest) accrues until it ends, then B.
	l.Emit(Event{T: 100, Kind: KindTxStart, ID: 1, Src: 1, Dst: 2, Class: ClassData.String(), End: 200})
	l.Emit(Event{T: 150, Kind: KindTxStart, ID: 2, Src: 2, Dst: 1, Class: ClassAck.String(), End: 250, Extra: 30})
	l.Emit(Event{T: 200, Kind: KindTxEnd, ID: 1})
	l.Emit(Event{T: 250, Kind: KindTxEnd, ID: 2})
	// C: retry frame [300, 340]; D: BAR [400, 410]; E: pure TCP-ACK
	// data frame [500, 520]. Events of other kinds book nothing.
	l.Emit(Event{T: 300, Kind: KindTxStart, ID: 3, Src: 1, Dst: 2, Class: ClassRetry.String(), End: 340})
	l.Emit(Event{T: 340, Kind: KindTxEnd, ID: 3})
	l.Emit(Event{T: 350, Kind: KindNAV, Sta: 2, Until: 900})
	l.Emit(Event{T: 400, Kind: KindTxStart, ID: 4, Src: 1, Dst: 2, Class: ClassBAR.String(), End: 410})
	l.Emit(Event{T: 410, Kind: KindTxEnd, ID: 4})
	l.Emit(Event{T: 500, Kind: KindTxStart, ID: 5, Src: 2, Dst: 1, Class: ClassTCPAck.String(), End: 520})
	l.Emit(Event{T: 520, Kind: KindTxEnd, ID: 5})

	rep := l.Snapshot(1000)
	if !rep.Conserved() {
		t.Fatalf("not conserved: busy %d + idle %d != elapsed %d", rep.Busy(), rep.Idle, rep.Elapsed)
	}
	if rep.Idle != 100+ /*gaps*/ 50+60+90+480 {
		t.Errorf("idle = %d, want 780", rep.Idle)
	}
	sta1 := rep.Stations[0]
	if sta1.Station != 1 || sta1.Data != 100 || sta1.Retry != 40 || sta1.BAR != 10 {
		t.Errorf("sta1 = %+v, want data=100 retry=40 bar=10", sta1)
	}
	// B accrued only [200, 250] = 50; 30 of it is TCP-ACK payload.
	sta2 := rep.Stations[1]
	if sta2.Station != 2 || sta2.TCPAck != 30+20 || sta2.WifiAck != 20 {
		t.Errorf("sta2 = %+v, want tcp_ack=50 wifi_ack=20", sta2)
	}
	if rep.Busy() != 220 {
		t.Errorf("busy = %d, want 220", rep.Busy())
	}
	if eff := rep.Efficiency(); eff != float64(100)/220 {
		t.Errorf("efficiency = %v, want 100/220", eff)
	}
}

func TestLedgerSnapshotMidFlight(t *testing.T) {
	l := NewAirtimeLedger()
	l.Emit(Event{T: 10, Kind: KindTxStart, ID: 1, Src: 1, Dst: 2, Class: ClassData.String(), End: 100})
	rep := l.Snapshot(50)
	if !rep.Conserved() {
		t.Fatalf("mid-flight snapshot not conserved: %+v", rep)
	}
	if rep.Total.Data != 40 || rep.Idle != 10 {
		t.Errorf("mid-flight: data=%d idle=%d, want 40, 10", rep.Total.Data, rep.Idle)
	}
	if l.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", l.InFlight())
	}
	// The snapshot must not have settled the live transmission.
	l.Emit(Event{T: 100, Kind: KindTxEnd, ID: 1})
	rep = l.Snapshot(100)
	if rep.Total.Data != 90 || rep.Idle != 10 || !rep.Conserved() {
		t.Errorf("final: %+v, want data=90 idle=10 conserved", rep.Total)
	}
}

// TestNopAllocFree asserts that emitting an event allocates nothing:
// not through Nop (a probe site whose tracer discards the event), not
// into a warm airtime ledger, and not fanned out to a recorder and a
// ledger. When tracing is off the probe sites skip the call behind a
// nil check, so this bounds the cost of tracing on.
func TestNopAllocFree(t *testing.T) {
	ledger := NewAirtimeLedger()
	emitSample(ledger) // warm: the ledger's in-flight list and station map
	for name, tr := range map[string]Tracer{
		"nop":    Nop{},
		"ledger": ledger,
		"multi":  Multi(NewRecorder(4), ledger),
	} {
		if allocs := testing.AllocsPerRun(100, func() { emitSample(tr) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per sweep of every event kind, want 0", name, allocs)
		}
	}
}

// WriteJSONL writes the retained events as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
