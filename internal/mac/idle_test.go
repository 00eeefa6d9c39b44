package mac

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/phy"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

// randomTraffic builds eight stations on one lossy collision domain and
// drives them with MSDUs between random pairs at random instants. The
// instants lie on a 1 µs grid, the grid of every frame timing, so
// enqueues land on NAV lapses, idle edges and slot boundaries, and the
// generators draw from their own source, so a traced copy of the
// network sees the same traffic. A second generator, the medium's
// tracer (after air), aims at NAV lapses outright (navEnds). Stations
// differ in HACK payload allowance, which makes a NAV outlast the
// response it covers, in ACK turnaround, and in CWmin: a wide window
// banks enough backoff that a stale idle clock would move a
// transmission. With traced set, every station carries trace.Nop and
// so never stops listening. A non-nil geom puts the stations on the
// spatial PHY instead, on a 4×2 grid of 20 m by 40 m cells, where each
// hears some of the others: hidden and exposed pairs, and frames that
// never reach their addressee.
func randomTraffic(seed int64, aggregated, traced bool, air trace.Tracer, geom *channel.Geometry) (*env, []*Station) {
	e := newEnv(seed, &channel.FixedLoss{Default: 0.1})
	e.medium.Geometry = geom
	var tr trace.Tracer
	if traced {
		tr = trace.Nop{}
	}
	rate := phy.RateA54
	if aggregated {
		rate = phy.HTRate(7, 1)
	}
	sts := make([]*Station, 8)
	for i := range sts {
		sts[i] = e.station(Config{
			Addr: Addr(i + 1), DataRate: rate, Aggregation: aggregated,
			AckPayloadAllowance: 100 * (i % 3),
			AckTurnaround:       sim.Duration(i%2) * 37 * sim.Microsecond,
			CWMin:               16<<(i%4) - 1,
			Tracer:              tr,
			Pos:                 channel.Pos{X: 20 * float64(i%4), Y: 40 * float64(i/4)},
		})
	}
	rng := rand.New(rand.NewSource(seed))
	var gen func()
	gen = func() {
		src := rng.Intn(len(sts))
		dst := rng.Intn(len(sts) - 1)
		if dst >= src {
			dst++
		}
		sts[src].Enqueue(udpMSDU(Addr(src+1), Addr(dst+1), 100+rng.Intn(1400), 0))
		e.sched.After(sim.Duration(1+rng.Intn(800))*sim.Microsecond, gen)
	}
	e.sched.At(0, gen)
	e.medium.Tracer = trace.Multi(air, &navEnds{sched: e.sched, sts: sts, rng: rand.New(rand.NewSource(seed + 1))})
	return e, sts
}

// navEnds is a medium tracer that, when every other data frame or BAR
// starts, schedules an MSDU for a station that is neither of the
// frame's parties at the instant the frame's NAV lapses. The enqueue is
// posted before the frame's lapse event, so at that instant it runs
// first: a waking station must then rejoin the pending lapse and keep
// the idle clock it had before the lapse.
type navEnds struct {
	sched *sim.Scheduler
	sts   []*Station
	rng   *rand.Rand
}

func (g *navEnds) Emit(ev trace.Event) {
	if ev.Kind != trace.KindTxStart || ev.Class == trace.ClassAck.String() || g.rng.Intn(2) == 0 {
		return
	}
	ex := g.sts[ev.Src-1].waiting
	dur := ex.data.Dur
	if ev.Class == trace.ClassBAR.String() {
		dur = ex.bar.Dur
	}
	k := g.rng.Intn(len(g.sts))
	if Addr(k+1) == Addr(ev.Src) || Addr(k+1) == Addr(ev.Dst) {
		return
	}
	dst := Addr(1 + (k+1+g.rng.Intn(len(g.sts)-1))%len(g.sts))
	st := g.sts[k]
	g.sched.At(ev.End+dur, func() { st.Enqueue(udpMSDU(st.Addr(), dst, 100+g.rng.Intn(1400), 0)) })
}

// TestIdleStationsMatchListening runs randomTraffic bare, where idle
// stations stop listening and catch up when they wake, against the same
// traffic with every station listening, in lockstep: every event must
// run at the same time, the medium's tx_start, tx_end and collision
// records must agree (transmissions at one instant in one order), and
// so must the events fired and every station's Stats and TCPAckTime.
// After every event every station that listens must hold its listening
// twin's DCF state exactly, including values no later event reads. The
// bare run must have had idle stations.
func TestIdleStationsMatchListening(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		aggregated := seed%3 == 0
		var air, oracleAir bytes.Buffer
		w, oracleW := trace.NewWriter(&air), trace.NewWriter(&oracleAir)
		e, sts := randomTraffic(seed, aggregated, false, w, nil)
		oracle, want := randomTraffic(seed, aggregated, true, oracleW, nil)
		awaySteps := 0
		for i := 0; e.sched.Now() < sim.Time(2*sim.Second); i++ {
			ok, okOracle := e.sched.Step(), oracle.sched.Step()
			if ok != okOracle || e.sched.Now() != oracle.sched.Now() {
				t.Fatalf("seed %d, event %d: bare runs at %v (%v), listening at %v (%v)",
					seed, i, e.sched.Now(), ok, oracle.sched.Now(), okOracle)
			}
			for k, st := range sts {
				if st.dcf.away {
					awaySteps++
					continue
				}
				if d, wd := st.dcf, want[k].dcf; dcfDiffers(d, wd) {
					t.Fatalf("seed %d, event %d at %v: station %v's DCF state differs from listening: %+v, want %+v",
						seed, i, e.sched.Now(), st.Addr(), d, wd)
				}
			}
		}
		if err, oracleErr := w.Close(), oracleW.Close(); err != nil || oracleErr != nil {
			t.Fatal(err, oracleErr)
		}
		if air.Len() == 0 || !bytes.Equal(air.Bytes(), oracleAir.Bytes()) {
			t.Errorf("seed %d: the medium's records differ", seed)
		}
		if a, b := e.sched.EventsFired(), oracle.sched.EventsFired(); a != b {
			t.Errorf("seed %d: events fired: bare %d, listening %d", seed, a, b)
		}
		for i, st := range sts {
			if st.Stats != want[i].Stats || st.TCPAckTime != want[i].TCPAckTime {
				t.Errorf("seed %d, station %v: bare %+v, listening %+v", seed, st.Addr(), st.Stats, want[i].Stats)
			}
		}
		if awaySteps == 0 {
			t.Errorf("seed %d: no station ever stopped listening", seed)
		}
	}
}

// TestDeafStationsMatchListening runs randomTraffic on the spatial PHY
// bare, where idle stations take no carrier edges and catch up when
// their carrier state is read, against the same traffic with every
// station listening, in lockstep as TestIdleStationsMatchListening
// does. After every event a station that takes no carrier edges must
// be idle, and every other one must hold its listening twin's DCF
// state exactly, including values no later event reads. The bare run
// must have had deaf stations.
func TestDeafStationsMatchListening(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		aggregated := seed%3 == 0
		var air, oracleAir bytes.Buffer
		w, oracleW := trace.NewWriter(&air), trace.NewWriter(&oracleAir)
		e, sts := randomTraffic(seed, aggregated, false, w, channel.DefaultGeometry())
		oracle, want := randomTraffic(seed, aggregated, true, oracleW, channel.DefaultGeometry())
		deafSteps := 0
		for i := 0; e.sched.Now() < sim.Time(2*sim.Second); i++ {
			ok, okOracle := e.sched.Step(), oracle.sched.Step()
			if ok != okOracle || e.sched.Now() != oracle.sched.Now() {
				t.Fatalf("seed %d, event %d: bare runs at %v (%v), listening at %v (%v)",
					seed, i, e.sched.Now(), ok, oracle.sched.Now(), okOracle)
			}
			for k, st := range sts {
				d, wd := st.dcf, want[k].dcf
				if d.deaf {
					deafSteps++
					if d.wantTx || d.timer.Pending() || st.waiting.q != nil || st.respPending {
						t.Fatalf("seed %d, event %d: station %v takes no carrier edges but is not idle", seed, i, st.Addr())
					}
					d.physBusy, d.physBusyAt, d.idleAt = wd.physBusy, wd.physBusyAt, wd.idleAt
				}
				if dcfDiffers(d, wd) {
					t.Fatalf("seed %d, event %d at %v: station %v's DCF state differs from listening: %+v, want %+v",
						seed, i, e.sched.Now(), st.Addr(), d, wd)
				}
			}
		}
		if err, oracleErr := w.Close(), oracleW.Close(); err != nil || oracleErr != nil {
			t.Fatal(err, oracleErr)
		}
		if air.Len() == 0 || !bytes.Equal(air.Bytes(), oracleAir.Bytes()) {
			t.Errorf("seed %d: the medium's records differ", seed)
		}
		if a, b := e.sched.EventsFired(), oracle.sched.EventsFired(); a != b {
			t.Errorf("seed %d: events fired: bare %d, listening %d", seed, a, b)
		}
		for i, st := range sts {
			if st.Stats != want[i].Stats || st.TCPAckTime != want[i].TCPAckTime {
				t.Errorf("seed %d, station %v: bare %+v, listening %+v", seed, st.Addr(), st.Stats, want[i].Stats)
			}
		}
		if deafSteps == 0 {
			t.Errorf("seed %d: no station ever stopped taking carrier edges", seed)
		}
	}
}

// dcfDiffers reports whether a station's DCF state d differs from its
// listening twin's wd.
func dcfDiffers(d, wd dcf) bool {
	return d.physBusy != wd.physBusy || d.physBusyAt != wd.physBusyAt || d.idleAt != wd.idleAt ||
		d.navUntil != wd.navUntil || d.eifs != wd.eifs || d.slots != wd.slots || d.cw != wd.cw
}

// TestIdleEqualNAVEnds sends two frames from one station whose NAV
// ends coincide, the second starting after the first has ended. A
// station that listens extends its NAV with the first frame only, so
// the second posts no lapse; nor may the idle stations' record, whose
// NAV already ends there. The bare run, where the other stations are
// idle, must run exactly as the run where all of them listen.
func TestIdleEqualNAVEnds(t *testing.T) {
	run := func(traced bool) ([]sim.Time, []*Station) {
		e := newEnv(1, nil)
		var tr trace.Tracer
		if traced {
			tr = trace.Nop{}
		}
		src := e.station(Config{Addr: 1, Tracer: trace.Nop{}})
		sts := []*Station{src}
		for a := Addr(2); a <= 4; a++ {
			sts = append(sts, e.station(Config{Addr: a, Tracer: tr}))
		}
		rate := phy.RateA54
		airA, airB := phy.FrameDuration(rate, 1000), phy.FrameDuration(rate, 100)
		navEnd := airA + 300*sim.Microsecond
		startB := airA + 28*sim.Microsecond
		e.sched.At(0, func() {
			e.medium.Transmit(src, rate, 1000, &DataFrame{From: 1, To: 99, Dur: navEnd - airA})
		})
		e.sched.At(startB, func() {
			for _, st := range sts[1:] {
				nav := st.dcf.navUntil
				if o := st.overheard; st.dcf.away {
					nav = o.roots[o.sta[st.RadioIndex()].root].nav
				}
				if st.dcf.away == traced || nav != navEnd {
					t.Fatalf("traced %v: station %v away %v, NAV until %v before the second frame; want away %v, %v",
						traced, st.Addr(), st.dcf.away, nav, !traced, navEnd)
				}
			}
			e.medium.Transmit(src, rate, 100, &DataFrame{From: 1, To: 99, Dur: navEnd - startB - airB})
		})
		var times []sim.Time
		for e.sched.Step() {
			times = append(times, e.sched.Now())
		}
		return times, sts
	}
	bare, sts := run(false)
	listening, want := run(true)
	if !reflect.DeepEqual(bare, listening) {
		t.Errorf("event times: bare %v, listening %v", bare, listening)
	}
	for i, st := range sts {
		if st.dcf.away {
			st.overheard.wake(st)
		}
		if st.dcf.navUntil != want[i].dcf.navUntil || st.dcf.idleAt != want[i].dcf.idleAt {
			t.Errorf("station %v: NAV until %v, idle since %v; listening %v, %v",
				st.Addr(), st.dcf.navUntil, st.dcf.idleAt, want[i].dcf.navUntil, want[i].dcf.idleAt)
		}
	}
}
