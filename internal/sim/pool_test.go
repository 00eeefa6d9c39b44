package sim

import (
	"testing"
)

// TestPersistentTimerReset: a NewTimer/Reset cycle must behave exactly
// like Cancel+At — same firing time, same Pending transitions, and
// re-armable after firing.
func TestPersistentTimerReset(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	tm := NewTimer(func() { fired = append(fired, s.Now()) })
	if tm.Pending() {
		t.Fatal("fresh persistent timer pending")
	}
	s.Reset(tm, 10)
	if !tm.Pending() || tm.At() != 10 {
		t.Fatalf("after Reset: pending=%v at=%v", tm.Pending(), tm.At())
	}
	s.Reset(tm, 25) // re-arm while pending: single event at the new time
	s.Run()
	if len(fired) != 1 || fired[0] != 25 {
		t.Fatalf("fired = %v, want [25]", fired)
	}
	if tm.Pending() {
		t.Fatal("pending after firing")
	}
	s.Reset(tm, 40) // re-arm after firing: callback survives
	s.Run()
	if len(fired) != 2 || fired[1] != 40 {
		t.Fatalf("fired = %v, want [25 40]", fired)
	}
	s.Cancel(tm) // cancelling a fired timer is a no-op
	s.Reset(tm, 50)
	s.Cancel(tm)
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("cancelled arming still fired: %v", fired)
	}
}

// TestResetTieBreaksLikeAt: a Reset consumes one insertion sequence
// number, so simultaneous events interleave with At-scheduled ones in
// call order — the property that keeps optimized modules bit-identical
// to their Cancel+After predecessors.
func TestResetTieBreaksLikeAt(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	a := NewTimer(func() { got = append(got, 1) })
	s.At(5, func() { got = append(got, 0) })
	s.Reset(a, 5)
	s.At(5, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", got)
	}
}

// TestResetPanicsOnOneShot: At/After handles are not re-armable; Reset
// on one would alias the free-list machinery, so it must panic.
func TestResetPanicsOnOneShot(t *testing.T) {
	s := NewScheduler(1)
	tm := s.At(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Reset on an At handle did not panic")
		}
	}()
	s.Reset(tm, 20)
}

// TestPostDelivery: Post events run in (time, post-order) with their
// arguments, interleaved correctly with At events.
func TestPostDelivery(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	rec := func(a any) { got = append(got, a.(int)) }
	s.Post(20, rec, 3)
	s.At(10, func() { got = append(got, 1) })
	s.PostAfter(10, rec, 2) // == time 10, after the At above
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

// TestPostRecyclesTimers: steady-state Post scheduling must reuse
// timers from the free list — zero allocations once warm.
func TestPostRecyclesTimers(t *testing.T) {
	s := NewScheduler(1)
	fn := func(any) {}
	// Warm: create the peak set of pooled timers.
	for i := 0; i < 8; i++ {
		s.PostAfter(Duration(i+1), fn, nil)
	}
	s.Run()
	if n := testing.AllocsPerRun(200, func() {
		s.PostAfter(1, fn, nil)
		s.Step()
	}); n != 0 {
		t.Errorf("warm Post+Step: %v allocs/op, want 0", n)
	}
}

// TestPostReleasesArgs: a fired Post event must not retain its
// argument through the free list (the scheduler would otherwise pin
// dead packets).
func TestPostReleasesArgs(t *testing.T) {
	s := NewScheduler(1)
	s.Post(1, func(any) {}, &struct{ big [64]byte }{})
	s.Run()
	for _, tm := range s.free {
		if tm.arg != nil || tm.fnArg != nil || tm.fn != nil {
			t.Fatal("recycled timer retains callback state")
		}
	}
	if len(s.free) != 1 {
		t.Fatalf("free list has %d timers, want 1", len(s.free))
	}
}

// TestPostSameTickRearmNoAlias: Step returns a fired Post timer to the
// free list before invoking its callback, so a callback that re-arms a
// persistent timer for the same tick runs while that recycled Timer is
// already reusable. The persistent handle must stay distinct — the
// re-armed event fires exactly once, in insertion order, and never
// through the recycled pooled Timer.
func TestPostSameTickRearmNoAlias(t *testing.T) {
	for _, bk := range []struct {
		name string
		heap bool
	}{{"wheel", false}, {"heap", true}} {
		t.Run(bk.name, func(t *testing.T) {
			s := NewScheduler(1)
			if bk.heap {
				UseHeap(s)
			}
			var got []string
			p := NewTimer(func() { got = append(got, "persist") })
			rearm := func(any) {
				got = append(got, "post")
				s.Reset(p, s.Now()) // zero-delay re-arm at the same tick
				if !p.Pending() || p.At() != s.Now() {
					t.Errorf("same-tick Reset: pending=%v at=%v now=%v",
						p.Pending(), p.At(), s.Now())
				}
			}
			for i := 0; i < 50; i++ {
				s.Post(Time(10*(i+1)), rearm, nil)
			}
			s.Run()
			if len(got) != 100 {
				t.Fatalf("fired %d events, want 100", len(got))
			}
			for i := 0; i < 100; i += 2 {
				if got[i] != "post" || got[i+1] != "persist" {
					t.Fatalf("order at %d: %v", i, got[i:i+2])
				}
			}
			if p.Pending() {
				t.Fatal("persistent timer still pending after drain")
			}
			for _, tm := range s.free {
				if tm == p {
					t.Fatal("persistent timer leaked into the free list")
				}
			}
		})
	}
}

// TestStepBudget guards the scheduler's own per-event overhead: once a
// mixed workload is warm, executing one event allocates nothing inside
// the engine (modules own whatever their callbacks allocate).
func TestStepBudget(t *testing.T) {
	s := NewScheduler(1)
	var tick func(any)
	tick = func(any) { s.PostAfter(3, tick, nil) }
	tm := NewTimer(func() {})
	s.PostAfter(1, tick, nil)
	for i := 0; i < 100; i++ { // warm heap capacity and the free list
		s.Step()
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Reset(tm, s.Now()+2)
		s.Cancel(tm)
		s.Step()
	}); n != 0 {
		t.Errorf("steady-state Reset+Cancel+Step: %v allocs/op, want 0", n)
	}
}
