package mac

import (
	"reflect"
	"testing"
)

// TestFifoOrder: pops, removals and pushes interleaved across rewinds
// and compactions keep first-in, first-out order, checked against a
// plain slice model.
func TestFifoOrder(t *testing.T) {
	var q fifo[int]
	var model []int
	next := 0
	for step := 0; step < 2000; step++ {
		switch {
		case step%7 == 3 && len(model) > 2:
			i := step % len(model)
			q.remove(i)
			model = append(model[:i], model[i+1:]...)
		case step%3 == 0 && len(model) > 0:
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop %d, want %d", step, got, model[0])
			}
			model = model[1:]
		default:
			q.push(next)
			model = append(model, next)
			next++
		}
		if q.len() != len(model) || (len(model) > 0 && q.front() != model[0]) {
			t.Fatalf("step %d: len %d front %v, want %v", step, q.len(), q.items(), model)
		}
		if !reflect.DeepEqual(append([]int{}, q.items()...), append([]int{}, model...)) {
			t.Fatalf("step %d: items %v, want %v", step, q.items(), model)
		}
	}
}

// TestFifoReusesArray: a queue that slides — one push per pop at a
// steady depth — settles on one backing array instead of reallocating
// as the window moves through it.
func TestFifoReusesArray(t *testing.T) {
	var q fifo[*MSDU]
	m := &MSDU{}
	for i := 0; i < 100; i++ {
		q.push(m)
	}
	slide := func() {
		q.push(m)
		q.pop()
	}
	for i := 0; i < 1000; i++ {
		slide() // reach the steady array size
	}
	if allocs := testing.AllocsPerRun(10000, slide); allocs != 0 {
		t.Errorf("sliding queue allocated %.3f times per push/pop, want 0", allocs)
	}
	for q.len() > 0 {
		q.pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Errorf("drained queue did not rewind: head %d len %d", q.head, len(q.buf))
	}
}
