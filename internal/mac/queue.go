package mac

// fifo is a first-in, first-out queue that keeps its backing array.
// Pops advance a head index instead of slicing the array's front away,
// the queue rewinds to the start of the array whenever it drains, and
// a push into a full array first compacts the live elements to the
// front once at least half of it is dead. A queue that stays busy
// therefore settles on one array instead of reallocating as it slides.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items returns the queued elements, oldest first. The slice is only
// valid until the next push, pop or remove.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.rewindIfEmpty()
	return v
}

// remove deletes the i-th queued element (0 is the oldest), keeping
// the others in order.
func (q *fifo[T]) remove(i int) {
	i += q.head
	last := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	var zero T
	q.buf[last] = zero
	q.buf = q.buf[:last]
	q.rewindIfEmpty()
}

func (q *fifo[T]) rewindIfEmpty() {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
