// Differential scheduler harness: the binary heap (the engine's
// original event queue, now test-only) and the timing wheel are driven
// from one recorded workload — randomized arm/cancel/Reset/Post programs and event
// traces captured from real ht150 networks — and must produce
// identical fire order, handle states, and clocks. The heap is the
// oracle: any divergence is a wheel ordering bug.
package sim_test

import (
	"math/rand"
	"testing"

	"tcphack/internal/hack"
	"tcphack/internal/node"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// Op kinds for the recorded scheduler programs. A program is
// interpreted identically against each queue; all randomness is
// pre-drawn into the op stream so the two executions are replicas.
const (
	opAt = iota
	opAfter
	opPost
	opPostAfter
	opCancel
	opCancelPersist
	opReset
	opStep
	opRunUntil
	numOps
)

type op struct {
	kind  int
	idx   int
	delta sim.Duration
	id    int
}

// Interpreter sizing: rings of one-shot handles and persistent timers.
const (
	nHandles = 128
	nPersist = 16
)

type rec struct {
	at sim.Time
	id int
}

type progResult struct {
	log     []rec
	now     sim.Time
	fired   uint64
	handles [nHandles]bool // Pending state at end of program
	persist [nPersist]bool
}

// runProgram interprets ops against a fresh scheduler, on the heap
// oracle when heap is set, and returns everything observable: the full
// fire log (time, op id), periodic pending-count snapshots, and final
// handle states.
func runProgram(heap bool, ops []op) progResult {
	s := sim.NewScheduler(1)
	if heap {
		sim.UseHeap(s)
	}
	var (
		log     []rec
		handles [nHandles]*sim.Timer
		persist [nPersist]*sim.Timer
		fires   [nPersist]int
	)
	// Overflow-safe absolute target: clamping wrapped sums to now keeps
	// fuzz inputs with huge accumulated deltas valid and deterministic.
	target := func(d sim.Duration) sim.Time {
		at := s.Now() + d
		if at < s.Now() {
			return s.Now()
		}
		return at
	}
	for i := range persist {
		i := i
		persist[i] = sim.NewTimer(func() {
			log = append(log, rec{s.Now(), -(i + 1)})
			fires[i]++
			if fires[i]%3 == 1 {
				// Deterministic bounded re-arm chain, including
				// zero-delay re-arms when the modulus lands on 0.
				d := sim.Duration(fires[i] * 37 * (i + 1) % 5000)
				s.Reset(persist[i], target(d))
			}
		})
	}
	postFn := func(a any) {
		id := a.(int)
		log = append(log, rec{s.Now(), id})
		if id%5 == 0 {
			// The pooled Timer that carried this event is already back
			// on the free list; re-arming a persistent timer for the
			// same tick must not alias it.
			s.Reset(persist[id%nPersist], s.Now())
		}
	}
	for _, o := range ops {
		switch o.kind {
		case opAt:
			id := o.id
			handles[o.idx%nHandles] = s.At(target(o.delta), func() {
				log = append(log, rec{s.Now(), id})
			})
		case opAfter:
			id := o.id
			handles[o.idx%nHandles] = s.After(target(o.delta)-s.Now(), func() {
				log = append(log, rec{s.Now(), id})
			})
		case opPost:
			s.Post(target(o.delta), postFn, o.id)
		case opPostAfter:
			s.PostAfter(target(o.delta)-s.Now(), postFn, o.id)
		case opCancel:
			s.Cancel(handles[o.idx%nHandles]) // nil-safe
		case opCancelPersist:
			s.Cancel(persist[o.idx%nPersist])
		case opReset:
			s.Reset(persist[o.idx%nPersist], target(o.delta))
		case opStep:
			for i := 0; i <= o.idx%4; i++ {
				s.Step()
			}
			log = append(log, rec{s.Now(), 1_000_000 + s.Pending()})
		case opRunUntil:
			s.RunUntil(target(o.delta % 100_000))
			log = append(log, rec{s.Now(), 2_000_000 + s.Pending()})
		}
	}
	for i := 0; i < 20_000_000 && s.Step(); i++ {
	}
	res := progResult{log: log, now: s.Now(), fired: s.EventsFired()}
	for i, h := range handles {
		res.handles[i] = h != nil && h.Pending()
	}
	for i, p := range persist {
		res.persist[i] = p.Pending()
	}
	return res
}

func compareResults(t *testing.T, heap, wheel progResult) {
	t.Helper()
	n := len(heap.log)
	if len(wheel.log) != n {
		t.Errorf("fire log length: heap %d, wheel %d", n, len(wheel.log))
		if len(wheel.log) < n {
			n = len(wheel.log)
		}
	}
	for i := 0; i < n; i++ {
		if heap.log[i] != wheel.log[i] {
			t.Fatalf("fire log diverges at %d: heap %+v, wheel %+v",
				i, heap.log[i], wheel.log[i])
		}
	}
	if heap.now != wheel.now {
		t.Errorf("final clock: heap %v, wheel %v", heap.now, wheel.now)
	}
	if heap.fired != wheel.fired {
		t.Errorf("events fired: heap %d, wheel %d", heap.fired, wheel.fired)
	}
	if heap.handles != wheel.handles {
		t.Errorf("handle Pending states diverge:\nheap  %v\nwheel %v",
			heap.handles, wheel.handles)
	}
	if heap.persist != wheel.persist {
		t.Errorf("persistent timer states diverge:\nheap  %v\nwheel %v",
			heap.persist, wheel.persist)
	}
}

// randDelta draws from a mix spanning every wheel level: same-tick
// collisions (0), MAC-timescale deltas, and jumps out to level 6.
func randDelta(r *rand.Rand) sim.Duration {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1, 2, 3:
		return sim.Duration(r.Intn(2000))
	case 4:
		return sim.Duration(r.Int63n(1 << 21))
	case 5:
		return sim.Duration(r.Int63n(1 << 35))
	case 6:
		return sim.Duration(r.Int63n(1 << 45))
	default:
		return sim.Duration(r.Int63n(1 << 55))
	}
}

func randOps(seed int64, n int) []op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: r.Intn(numOps), idx: r.Intn(1 << 16), delta: randDelta(r), id: i}
	}
	return ops
}

// TestDifferentialRandomOps drives both queues through one million
// randomized operations per seed and requires byte-identical fire
// logs, clocks, and handle states.
func TestDifferentialRandomOps(t *testing.T) {
	const opsPerRun = 1_000_000
	for _, seed := range []int64{1, 2, 42} {
		ops := randOps(seed, opsPerRun)
		heap := runProgram(true, ops)
		wheel := runProgram(false, ops)
		if len(heap.log) < opsPerRun/4 {
			t.Fatalf("seed %d: degenerate program, only %d fires", seed, len(heap.log))
		}
		compareResults(t, heap, wheel)
	}
}

// networkTrace runs a real ht150 network (aggregated 802.11n, HACK
// MORE-DATA, 3 TCP downloads), moved onto the heap oracle when heap is
// set, and records the virtual time of every executed event.
func networkTrace(heap bool, loss float64, maxEvents int) ([]sim.Time, uint64) {
	opts := []scenario.Option{
		scenario.With80211n(),
		scenario.WithClients(3),
		scenario.WithMode(hack.ModeMoreData),
	}
	if loss > 0 {
		opts = append(opts, scenario.WithUniformLoss(loss))
	}
	n := node.New(scenario.New(opts...))
	if heap {
		sim.UseHeap(n.Sched)
	}
	for ci := 0; ci < 3; ci++ {
		n.StartDownload(ci, 0, sim.Duration(ci)*sim.Millisecond)
	}
	trace := make([]sim.Time, 0, maxEvents)
	for len(trace) < maxEvents && n.Sched.Step() {
		trace = append(trace, n.Sched.Now())
	}
	return trace, n.Sched.EventsFired()
}

// TestDifferentialNetworkTrace captures the event-time trace of a real
// simulated network — the workload whose timer churn (NAV resets,
// response deadlines, block-ack flushes) the wheel is tuned for — and
// requires the wheel to replay the heap's trace exactly, lossless and
// at 5% uniform loss.
func TestDifferentialNetworkTrace(t *testing.T) {
	const maxEvents = 200_000
	for _, tc := range []struct {
		name string
		loss float64
	}{{"lossless", 0}, {"loss5pct", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			heap, heapFired := networkTrace(true, tc.loss, maxEvents)
			wheel, wheelFired := networkTrace(false, tc.loss, maxEvents)
			if len(heap) != len(wheel) {
				t.Fatalf("trace length: heap %d, wheel %d", len(heap), len(wheel))
			}
			if len(heap) < maxEvents/2 {
				t.Fatalf("degenerate trace: only %d events", len(heap))
			}
			for i := range heap {
				if heap[i] != wheel[i] {
					t.Fatalf("trace diverges at event %d: heap %v, wheel %v",
						i, heap[i], wheel[i])
				}
			}
			if heapFired != wheelFired {
				t.Fatalf("events fired: heap %d, wheel %d", heapFired, wheelFired)
			}
		})
	}
}

// opsFromBytes decodes a fuzz input into an op program: 4 bytes per op
// (kind+scale, index, 16-bit delta mantissa), with the scale shifting
// deltas out to ~2^60 so every wheel level is reachable.
func opsFromBytes(data []byte) []op {
	var ops []op
	for i := 0; i+3 < len(data); i += 4 {
		shift := uint(data[i]) / numOps % 45
		ops = append(ops, op{
			kind:  int(data[i]) % numOps,
			idx:   int(data[i+1]),
			delta: sim.Duration((int64(data[i+2]) | int64(data[i+3])<<8) << shift),
			id:    i,
		})
	}
	return ops
}

// FuzzSchedulerOrder feeds arbitrary op programs — same-tick
// collisions, zero-delay re-arms, cancel/Reset storms — to both
// queues and requires identical pop order and handle states. The
// seed corpus lives in testdata/fuzz/FuzzSchedulerOrder.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 7, 3, 0, 0})             // At(now), then steps
	f.Add([]byte{2, 0, 0, 0, 2, 5, 0, 0, 7, 0, 0, 0}) // same-tick Posts
	f.Add([]byte{6, 1, 1, 0, 6, 1, 0, 0, 7, 1, 0, 0}) // Reset churn, zero-delay
	seed := randOps(7, 64)
	raw := make([]byte, 0, len(seed)*4)
	for _, o := range seed {
		raw = append(raw, byte(o.kind), byte(o.idx), byte(o.delta), byte(o.delta>>8))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		ops := opsFromBytes(data)
		compareResults(t, runProgram(true, ops), runProgram(false, ops))
	})
}
