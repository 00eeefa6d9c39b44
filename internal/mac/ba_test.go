package mac

import (
	"math/bits"
	"slices"
	"testing"

	"tcphack/internal/sim"
)

// mapReorder is the reference Block ACK recipient: the reorder buffer
// as a map from sequence number to MSDU, with the bitmap built by 64
// probes and the flush by a scan for the highest buffered number. It
// is the implementation the ring in ba.go replaced, kept to check the
// ring against.
type mapReorder struct {
	st         *Station
	started    bool
	winStart   uint16
	buf        map[uint16]*MSDU // received, undelivered, seq ≥ winStart
	flushTimer *sim.Timer
}

func newMapReorder(st *Station) *mapReorder {
	r := &mapReorder{st: st, buf: make(map[uint16]*MSDU)}
	r.flushTimer = sim.NewTimer(r.flush)
	return r
}

func (r *mapReorder) receive(m *MPDU) bool {
	if !r.started {
		r.started = true
		r.winStart = m.Seq
	}
	if seqLT(m.Seq, r.winStart) {
		return false
	}
	if _, dup := r.buf[m.Seq]; dup {
		return false
	}
	if d := seqDiff(m.Seq, r.winStart); d >= baWindowSize {
		r.advanceTo(seqAdd(m.Seq, -(baWindowSize - 1)))
	}
	r.buf[m.Seq] = m.MSDU
	m.MSDU.retain()
	r.deliverInOrder()
	r.armFlush()
	return true
}

func (r *mapReorder) deliverInOrder() {
	for {
		msdu, ok := r.buf[r.winStart]
		if !ok {
			return
		}
		delete(r.buf, r.winStart)
		r.winStart = seqNext(r.winStart)
		r.st.deliverUp(msdu)
		msdu.release()
	}
}

func (r *mapReorder) advanceTo(seq uint16) {
	if !r.started {
		r.started = true
		r.winStart = seq
		return
	}
	for r.winStart != seq {
		if msdu, ok := r.buf[r.winStart]; ok {
			delete(r.buf, r.winStart)
			r.st.deliverUp(msdu)
			msdu.release()
		}
		r.winStart = seqNext(r.winStart)
	}
	r.deliverInOrder()
	r.armFlush()
}

func (r *mapReorder) bitmap() (start uint16, bits uint64) {
	start = r.winStart
	for i := 0; i < baWindowSize; i++ {
		if _, ok := r.buf[seqAdd(start, i)]; ok {
			bits |= 1 << uint(i)
		}
	}
	return start, bits
}

func (r *mapReorder) armFlush() {
	r.st.sched.Cancel(r.flushTimer)
	if len(r.buf) == 0 {
		return
	}
	r.st.sched.Reset(r.flushTimer, r.st.sched.Now()+reorderTimeout)
}

func (r *mapReorder) flush() {
	if len(r.buf) == 0 {
		return
	}
	maxD := 0
	for s := range r.buf {
		if d := seqDiff(s, r.winStart); d > maxD {
			maxD = d
		}
	}
	r.advanceTo(seqAdd(r.winStart, maxD+1))
}

// reorderPair drives the ring and the reference through the same
// program, each on a station of its own with its own scheduler, and
// records what each delivers up.
type reorderPair struct {
	ringEnv, refEnv *env
	ring            *baRecipient
	ref             *mapReorder
	gotRing, gotRef []*MSDU
}

func newReorderPair() *reorderPair {
	p := &reorderPair{ringEnv: newEnv(1, nil), refEnv: newEnv(1, nil)}
	a := p.ringEnv.station(Config{Addr: 1})
	b := p.refEnv.station(Config{Addr: 1})
	a.Deliver = func(m *MSDU) { p.gotRing = append(p.gotRing, m) }
	b.Deliver = func(m *MSDU) { p.gotRef = append(p.gotRef, m) }
	p.ring, p.ref = newBARecipient(a), newMapReorder(b)
	return p
}

// receive hands both sides the MPDU seq and reports their verdicts.
func (p *reorderPair) receive(seq uint16) (ring, ref bool) {
	m := &MPDU{Seq: seq, MSDU: &MSDU{}}
	return p.ring.receive(m), p.ref.receive(m)
}

// bar moves both windows as a Block ACK Request starting at seq does
// (Station.rxBAR).
func (p *reorderPair) bar(seq uint16) {
	if p.ring.started && seqLT(p.ring.winStart, seq) {
		p.ring.advanceTo(seq)
	}
	if p.ref.started && seqLT(p.ref.winStart, seq) {
		p.ref.advanceTo(seq)
	}
}

// wait runs both schedulers for d, firing any flush timer due.
func (p *reorderPair) wait(d sim.Duration) {
	p.ringEnv.sched.RunUntil(p.ringEnv.sched.Now() + d)
	p.refEnv.sched.RunUntil(p.refEnv.sched.Now() + d)
}

// compare reports the first way the two sides disagree, or "".
func (p *reorderPair) compare() string {
	switch {
	case !slices.Equal(p.gotRing, p.gotRef):
		return "delivered MSDU order"
	case p.ring.started != p.ref.started || p.ring.winStart != p.ref.winStart:
		return "winStart"
	case p.ring.flushTimer.Pending() != p.ref.flushTimer.Pending():
		return "flush timer armed"
	case bits.OnesCount64(p.ring.held) != len(p.ref.buf):
		return "buffered count"
	}
	rs, rb := p.ring.bitmap()
	fs, fb := p.ref.bitmap()
	if rs != fs || rb != fb {
		return "bitmap"
	}
	return ""
}

// heldSeq returns the i-th buffered sequence number (mod the count),
// or false when nothing is buffered.
func (p *reorderPair) heldSeq(i int) (uint16, bool) {
	n := len(p.ref.buf)
	if n == 0 {
		return 0, false
	}
	i %= n
	for d := 0; d < baWindowSize; d++ {
		s := seqAdd(p.ref.winStart, d)
		if _, ok := p.ref.buf[s]; ok {
			if i == 0 {
				return s, true
			}
			i--
		}
	}
	return 0, false
}

// FuzzReorderWindow checks the ring against the map-based reference.
// The first byte places the first reception within 128 of the 4095→0
// wrap; every further 3 bytes are one step — an opcode and a 16-bit
// operand — drawing a sequence number old, inside the window, as a
// duplicate of a buffered one, or 64 or more ahead, or flushing,
// applying a Block ACK Request, or letting the flush timer run. After
// every step both sides must agree on the duplicate verdict, what they
// delivered and in which order, winStart, the bitmap and whether the
// flush timer is armed.
func FuzzReorderWindow(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{5, 0, 3, 0, 0, 1, 0, 0, 2, 0, 4, 0, 7, 0})
	f.Add([]byte{100, 4, 200, 7, 0, 5, 0, 0, 4, 100, 1, 1, 9, 0, 5, 0, 0})
	f.Add([]byte{127, 1, 1, 0, 1, 5, 0, 3, 0, 0, 6, 40, 0, 7, 2, 0, 2, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		p := newReorderPair()
		first := uint16(seqModulus - 1 - int(prog[0])%128)
		p.receive(first)
		if what := p.compare(); what != "" {
			t.Fatalf("after the first reception (seq %d): sides differ in %s", first, what)
		}
		for i := 1; i+2 < len(prog); i += 3 {
			op, arg := prog[i]%8, int(prog[i+1])|int(prog[i+2])<<8
			win := p.ref.winStart
			var seq uint16
			var step string
			switch op {
			case 0, 1: // inside the window
				seq, step = seqAdd(win, arg%baWindowSize), "in-window"
			case 2: // behind the window
				seq, step = seqAdd(win, -1-arg%(seqModulus/2-1)), "old"
			case 3: // a buffered one again, or the last delivered
				var ok bool
				if seq, ok = p.heldSeq(arg); !ok {
					seq = seqAdd(win, -1)
				}
				step = "duplicate"
			case 4: // past the window's end, up to half the space ahead
				seq, step = seqAdd(win, baWindowSize+arg%(seqModulus/2-baWindowSize+1)), "ahead"
			case 5:
				p.ring.flush()
				p.ref.flush()
				step = "flush"
			case 6:
				seq, step = seqAdd(win, arg%(seqModulus/2+1)), "bar"
				p.bar(seq)
			case 7:
				p.wait(sim.Duration(1+arg%3) * reorderTimeout / 2)
				step = "wait"
			}
			if op <= 4 {
				if ring, ref := p.receive(seq); ring != ref {
					t.Fatalf("step %d (%s, seq %d from window %d): ring accepted=%v, reference %v",
						i/3, step, seq, win, ring, ref)
				}
			}
			if what := p.compare(); what != "" {
				t.Fatalf("step %d (%s, seq %d from window %d): sides differ in %s", i/3, step, seq, win, what)
			}
		}
		p.ring.flush()
		p.ref.flush()
		if what := p.compare(); what != "" {
			t.Fatalf("final flush: sides differ in %s", what)
		}
	})
}

// blockAckProgram is the arrival program of BenchmarkBlockAckRecipient:
// one full trip around the sequence space in 64 windows, so the window
// returns to where it started and every pass is the same work. Each
// window's A-MPDU loses a stride-dependent subset of its 64 MPDUs, the
// recipient answers a Block ACK, the retransmission fills the holes,
// and it answers again; the trip crosses the 4095→0 wrap.
type blockAckProgram struct {
	r     *baRecipient
	mpdus [baWindowSize]MPDU
	start uint16
	acked uint64 // folds every bitmap so the work cannot be elided
}

func newBlockAckProgram() *blockAckProgram {
	e := newEnv(1, nil)
	st := e.station(Config{Addr: 1})
	p := &blockAckProgram{r: newBARecipient(st), start: seqModulus - 32}
	for i := range p.mpdus {
		p.mpdus[i].MSDU = &MSDU{}
	}
	return p
}

func (p *blockAckProgram) run() {
	seq := p.start
	for w := 0; w < seqModulus/baWindowSize; w++ {
		stride := 3 + w%6 // which MPDUs the first attempt loses
		for i := range p.mpdus {
			if i%stride != 1 {
				p.mpdus[i].Seq = seqAdd(seq, i)
				p.r.receive(&p.mpdus[i])
			}
		}
		_, b := p.r.bitmap()
		p.acked ^= b
		for i := range p.mpdus {
			if i%stride == 1 {
				p.mpdus[i].Seq = seqAdd(seq, i)
				p.r.receive(&p.mpdus[i])
			}
		}
		_, b = p.r.bitmap()
		p.acked ^= b
		seq = seqAdd(seq, baWindowSize)
	}
}

func TestBlockAckRecipientAllocFree(t *testing.T) {
	p := newBlockAckProgram()
	p.run() // the window's first reception starts the agreement
	if p.r.winStart != p.start || p.r.held != 0 {
		t.Fatalf("after one trip: window at %d holding %#x, want %d holding nothing", p.r.winStart, p.r.held, p.start)
	}
	if n := testing.AllocsPerRun(20, p.run); n != 0 {
		t.Errorf("Block ACK recipient program allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkBlockAckRecipient measures the receive side of a Block ACK
// agreement — receive, bitmap and in-order delivery — over the fixed
// program of blockAckProgram (4096 receptions and 128 bitmaps per op).
func BenchmarkBlockAckRecipient(b *testing.B) {
	p := newBlockAckProgram()
	p.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run()
	}
}
