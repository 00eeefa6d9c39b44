package sim

// heapScheduler is the binary min-heap event queue — the engine's
// original one, kept in the tests as the oracle the timing wheel is
// compared against (differential_test.go, FuzzSchedulerOrder). It is
// a hand-rolled heap rather than container/heap: the comparator is a
// strict total order on (at, seq), so pop order — the only observable
// property — is identical, while the direct implementation avoids the
// interface-call and indirect Less/Swap overhead.
type heapScheduler struct {
	events []*Timer // binary min-heap on (at, seq)
}

func (h *heapScheduler) len() int  { return len(h.events) }
func (h *heapScheduler) min() Time { return h.events[0].at }

func (h *heapScheduler) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *heapScheduler) swap(i, j int) {
	e := h.events
	e[i], e[j] = e[j], e[i]
	e[i].index = i
	e[j].index = j
}

func (h *heapScheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap below i, reporting whether i moved.
func (h *heapScheduler) siftDown(i int) bool {
	start := i
	n := len(h.events)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			break
		}
		h.swap(i, min)
		i = min
	}
	return i > start
}

func (h *heapScheduler) push(t *Timer) {
	t.index = len(h.events)
	h.events = append(h.events, t)
	h.siftUp(t.index)
}

func (h *heapScheduler) popMin() *Timer {
	e := h.events
	t := e[0]
	last := len(e) - 1
	e[0] = e[last]
	e[0].index = 0
	e[last] = nil
	h.events = e[:last]
	if last > 0 {
		h.siftDown(0)
	}
	t.index = -1
	return t
}

func (h *heapScheduler) remove(t *Timer) {
	e := h.events
	i := t.index
	last := len(e) - 1
	if i != last {
		e[i] = e[last]
		e[i].index = i
	}
	e[last] = nil
	h.events = e[:last]
	if i != last {
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	t.index = -1
}

// UseHeap moves s's pending timers into a fresh binary heap, which
// then backs s. Each timer keeps the (at, seq) key the Scheduler gave
// it, so the move cannot reorder them.
func UseHeap(s *Scheduler) {
	h := &heapScheduler{}
	for s.q.len() > 0 {
		h.push(s.q.popMin())
	}
	s.q = h
}
