package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOTies(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(50, func() { got = append(got, i) })
	}
	s.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order got[%d]=%d, want %d (simultaneous events must run FIFO)", i, v, i)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	var rec func()
	n := 0
	rec = func() {
		got = append(got, s.Now())
		n++
		if n < 5 {
			s.After(7, rec)
		}
	}
	s.After(7, rec)
	s.Run()
	for i, at := range got {
		if want := Time(7 * (i + 1)); at != want {
			t.Errorf("event %d at %v, want %v", i, at, want)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(10, func() { fired = true })
	s.Cancel(tm)
	s.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	if !tm.Cancelled() {
		t.Error("timer does not report cancelled")
	}
	// Cancelling again must be a no-op.
	s.Cancel(tm)
	s.Cancel(nil)
}

func TestSchedulerCancelOneOfMany(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	timers := make([]*Timer, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers[i] = s.At(Time(i*10), func() { got = append(got, i) })
	}
	s.Cancel(timers[3])
	s.Cancel(timers[7])
	s.Run()
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled timer %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %d, want 8", len(got))
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.At(100, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if s.Now() != 25 {
		t.Errorf("Now = %v, want 25 (clock advances to limit)", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := NewScheduler(seed)
		var trace []Time
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, s.Now())
			n++
			if n < 200 {
				s.After(Duration(1+s.Rand().Intn(100)), tick)
			}
		}
		s.After(1, tick)
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces; RNG not wired through")
	}
}

func TestForkRandIndependence(t *testing.T) {
	s1 := NewScheduler(7)
	s2 := NewScheduler(7)
	a := s1.ForkRand()
	// Perturb s2's primary stream before forking: fork must come from the
	// primary stream deterministically, so this changes the fork.
	s2.Rand().Int63()
	b := s2.ForkRand()
	if a.Int63() == b.Int63() {
		t.Error("forked streams unexpectedly identical after divergent draws")
	}
}

// Property: for any set of event times, execution order is the sorted
// order of times (stable for duplicates).
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler(1)
		var got []Time
		for _, at := range times {
			at := Time(at)
			s.At(at, func() { got = append(got, at) })
		}
		s.Run()
		want := make([]Time, len(times))
		for i, v := range times {
			want[i] = Time(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the
// complement to fire.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(times []uint16, mask []bool) bool {
		s := NewScheduler(1)
		fired := make(map[int]bool)
		timers := make([]*Timer, len(times))
		for i, at := range times {
			i := i
			timers[i] = s.At(Time(at), func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range timers {
			if i < len(mask) && mask[i] {
				s.Cancel(timers[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range times {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 || Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatal("unit constants wrong")
	}
	tt := Time(1500 * Microsecond)
	if tt.Seconds() != 0.0015 {
		t.Errorf("Seconds = %v", tt.Seconds())
	}
	if tt.Micros() != 1500 {
		t.Errorf("Micros = %v", tt.Micros())
	}
	if tt.Millis() != 1.5 {
		t.Errorf("Millis = %v", tt.Millis())
	}
	if got := Time(2 * Second).String(); got != "2.000000s" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(10, tick)
		}
	}
	s.After(10, tick)
	s.Run()
}

func BenchmarkSchedulerFanout(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	for i := 0; i < b.N; i++ {
		s.At(Time(i), func() {})
	}
	b.ResetTimer()
	s.Run()
}

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Cancelled reports whether the timer is not currently pending (never
// scheduled, already fired, or stopped).
func (t *Timer) Cancelled() bool { return t.index < 0 }

// Rand returns the scheduler's deterministic random stream. Modules
// must draw all randomness from here (or from streams forked via
// ForkRand) to preserve reproducibility.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Pending returns the number of events currently scheduled.
func (s *Scheduler) Pending() int { return s.q.len() }
