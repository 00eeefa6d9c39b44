// Package sim provides a deterministic discrete-event simulation engine.
//
// All protocol modules in this repository are driven by a single
// Scheduler: they schedule closures at absolute or relative virtual
// times, and the Scheduler runs them in (time, insertion-order) order.
// Determinism is guaranteed for a fixed seed: the engine itself never
// consults wall-clock time or global randomness, and ties between events
// scheduled for the same instant are broken by insertion order.
//
// # Event queue
//
// The Scheduler's event queue is a hierarchical timing wheel: 7 levels
// of 1024 slots at 1 ns tick granularity, so level l spans deltas in
// [2^(10l), 2^(10(l+1))) and the hierarchy covers the full
// non-negative int64 time range with no unsorted overflow list.
// Arming, cancelling, and re-arming a timer are all O(1) — the
// operations that dominate MAC workloads (backoff freezes and re-arms,
// response timeouts, block-ack flush churn) — independent of how many
// other events are pending. When the cursor advances past a level
// boundary, the slot covering the new cursor cascades: its timers
// re-place into finer levels by their remaining delta, moving whole
// buckets without reordering.
//
// The wheel implements the strict (at, seq) total order, so pop order
// — the only observable property — depends on the program alone, save
// one same-instant tie pattern the wheel gets wrong (see the ordering
// note on wheelScheduler). The engine's original binary min-heap lives
// on in this package's tests as the oracle for that order: recorded op
// programs, FuzzSchedulerOrder and event traces of real networks run
// on both queues and must agree. BENCH_7.json records the heap's cost
// at scale.
//
// # Scheduling APIs and allocation behaviour
//
// The engine exposes three ways to schedule work, trading convenience
// against per-event allocation cost on hot paths:
//
//   - At/After return a *Timer handle the caller may Cancel later.
//     Each call allocates a fresh Timer; handles stay valid (and inert)
//     forever, so this is the safe general-purpose path.
//   - Post/PostAfter are fire-and-forget: no handle is returned, and
//     the internal Timer is recycled through a free list once the event
//     fires. The callback takes an opaque argument supplied at post
//     time, so call sites can keep one persistent func value per site
//     and pass the varying state (a packet, a transmission) as the
//     argument — zero allocations per event.
//   - NewTimer/Reset implement persistent timers: a module that arms,
//     cancels, and re-arms the same logical timeout (a retransmission
//     timer, an ACK-response deadline) allocates its Timer and callback
//     once and Resets it for every subsequent arming. A persistent
//     Timer is never recycled, so its handle is always safe to Cancel
//     or query.
//
// All three paths share one event queue and one insertion-sequence
// counter, so mixing them cannot perturb simultaneous-event ordering:
// a Reset or Post consumes exactly one sequence number, the same as
// the At call it replaces.
//
// # Determinism contract for observers
//
// Observability layers (internal/trace) hook the protocol modules via
// probe callbacks. The contract that keeps golden baselines
// byte-identical with tracing on or off: observers are invoked
// synchronously from already-scheduled events and must never schedule
// events, consume RNG draws (ForkRand order is part of a run's
// identity), or mutate protocol state. Probe sites therefore live
// outside the scheduler's hot decisions — a nil observer costs one
// pointer check and nothing else.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation. Nanosecond granularity comfortably represents every
// 802.11 interval we model (the shortest, a 400 ns guard interval, is
// 400 ticks).
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration's constants so call sites
// read naturally (sim.Microsecond, 4*sim.Millisecond, ...).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time as seconds with microsecond precision, which
// is the most readable unit at 802.11 timescales.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Timer is a handle to a scheduled event. The zero Timer is invalid;
// timers are created by Scheduler.At / Scheduler.After (one-shot
// handles) or NewTimer (persistent, re-armable via Scheduler.Reset).
type Timer struct {
	at    Time
	seq   uint64
	fn    func()
	fnArg func(any) // set for Post events; fn is nil then
	arg   any
	// index is the pending marker: the wheel stores 0 while the timer
	// is linked into a bucket (the test-only heap stores its heap
	// position), and both store -1 when it is not pending.
	index int
	// Intrusive bucket list links + placement, used by the wheel.
	// Keeping them on the Timer makes every wheel operation
	// allocation-free.
	wnext  *Timer
	wprev  *Timer
	wlevel int8
	wslot  int16
	// persistent marks caller-owned timers (NewTimer): kept out of the
	// free list, and their callback survives firing so Reset can re-arm
	// without re-supplying it.
	persistent bool
	// pooled marks scheduler-owned fire-and-forget timers (Post): no
	// caller can hold a handle, so they recycle through the free list.
	pooled bool
}

// Pending reports whether the timer is scheduled and has not fired.
func (t *Timer) Pending() bool { return t.index >= 0 }

// At returns the virtual time the timer is (or was last) scheduled for.
func (t *Timer) At() Time { return t.at }

// eventQueue is the priority queue behind a Scheduler: the timing
// wheel, or in tests the binary-heap oracle (heap_test.go). Both keep
// the strict (at, seq) total order; remove takes the timer itself so a
// queue can use either a positional index (heap) or intrusive links
// (wheel).
type eventQueue interface {
	len() int
	push(t *Timer)
	remove(t *Timer)
	popMin() *Timer
	min() Time // undefined when len() == 0
}

// Scheduler is the discrete-event core. It is not safe for concurrent
// use; simulations are single-goroutine by design (determinism).
type Scheduler struct {
	now   Time
	seq   uint64
	q     eventQueue
	free  []*Timer // recycled pooled timers
	rng   *rand.Rand
	fired uint64 // total events executed, for diagnostics
}

// NewScheduler returns a scheduler whose random stream is seeded with
// seed, running on the timing-wheel event queue. Two schedulers with
// equal seeds and equal event programs produce identical executions.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed)), q: newWheelScheduler()}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// ForkRand derives an independent deterministic stream. Use one stream
// per stochastic subsystem so adding draws in one module does not
// perturb another.
func (s *Scheduler) ForkRand() *rand.Rand {
	return rand.New(rand.NewSource(s.rng.Int63()))
}

// EventsFired returns the number of events executed so far.
func (s *Scheduler) EventsFired() uint64 { return s.fired }

// schedule enqueues t at the absolute time at, assigning the next
// insertion sequence number (the tie-break for simultaneous events).
func (s *Scheduler) schedule(t *Timer, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	t.at = at
	t.seq = s.seq
	s.seq++
	s.q.push(t)
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a protocol bug, and silently reordering
// time would invalidate every simulation result.
func (s *Scheduler) At(at Time, fn func()) *Timer {
	t := &Timer{fn: fn, index: -1}
	s.schedule(t, at)
	return t
}

// After schedules fn to run d from now.
//
// Test accessor: channel, mac, tcp.
func (s *Scheduler) After(d Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Post schedules the fire-and-forget event fn(arg) at absolute time
// at. No handle is returned — the event cannot be cancelled — which
// lets the scheduler recycle the internal timer through a free list.
// Keep fn persistent (one func value per call site) and pass the
// per-event state through arg for a zero-allocation hot path.
func (s *Scheduler) Post(at Time, fn func(any), arg any) {
	var t *Timer
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		t = &Timer{pooled: true, index: -1}
	}
	t.fnArg = fn
	t.arg = arg
	s.schedule(t, at)
}

// PostAfter is Post at d from now.
func (s *Scheduler) PostAfter(d Duration, fn func(any), arg any) {
	s.Post(s.now+d, fn, arg)
}

// NewTimer returns an unscheduled persistent timer owned by the
// caller: arm it with Scheduler.Reset, stop it with Scheduler.Cancel,
// and re-arm it as often as needed. The callback is fixed at
// construction (mutable state belongs in the callback's receiver), the
// handle is never recycled, and no allocation happens per arming — the
// pattern every recurring protocol timeout in this repository uses.
func NewTimer(fn func()) *Timer {
	return &Timer{fn: fn, persistent: true, index: -1}
}

// Reset (re)schedules the persistent timer t at absolute time at,
// cancelling any pending arming first. It is equivalent to Cancel
// followed by At with the construction-time callback: the rescheduled
// event receives a fresh insertion sequence number, so
// simultaneous-event ordering matches what a fresh At call would
// produce. Reset panics on non-persistent timers — At/After handles
// are not re-armable.
func (s *Scheduler) Reset(t *Timer, at Time) {
	if !t.persistent {
		panic("sim: Reset on a non-persistent timer (use NewTimer)")
	}
	if t.index >= 0 {
		s.q.remove(t)
	}
	s.schedule(t, at)
}

// Cancel stops a pending timer. Cancelling an already-fired or
// already-cancelled timer is a no-op, so callers can cancel
// unconditionally.
func (s *Scheduler) Cancel(t *Timer) {
	if t == nil || t.index < 0 {
		return
	}
	s.q.remove(t)
	s.release(t)
}

// release drops a finished timer's callback references (so the
// scheduler does not retain dead packets) and returns pooled timers to
// the free list. Persistent timers keep their callback for the next
// Reset.
func (s *Scheduler) release(t *Timer) {
	if t.persistent {
		return
	}
	t.fn = nil
	t.fnArg = nil
	t.arg = nil
	if t.pooled {
		s.free = append(s.free, t)
	}
}

// Step executes the single earliest pending event. It reports false if
// no events remain.
func (s *Scheduler) Step() bool {
	if s.q.len() == 0 {
		return false
	}
	t := s.q.popMin()
	s.now = t.at
	s.fired++
	if t.fnArg != nil {
		fn, arg := t.fnArg, t.arg
		s.release(t)
		fn(arg)
	} else {
		fn := t.fn
		s.release(t)
		fn()
	}
	return true
}

// RunUntil executes events until the queue is empty or the next event
// is later than limit. The clock is left at the time of the last
// executed event, or advanced to limit if limit is reached.
func (s *Scheduler) RunUntil(limit Time) {
	for s.q.len() > 0 && s.q.min() <= limit {
		s.Step()
	}
	if s.now < limit {
		s.now = limit
	}
}

// Run executes events until none remain. Protocol stacks with
// keepalive-style recurring timers never drain, so most callers want
// RunUntil; Run exists for self-terminating test programs.
//
// Test accessor: channel, node.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
