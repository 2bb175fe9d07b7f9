package sim

// FIFO is a growable ring queue for the simulator's wait lists (operand
// buffer waiters, parked cache misses, directory lock waiters). Its
// storage doubles when full and is reused as entries are popped, so a
// queue that never drains completely still stays bounded by its peak
// occupancy — a head-indexed slice would keep growing until it emptied.
// The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len reports the number of queued entries.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the head entry without removing it. The queue must not
// be empty.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front of empty FIFO")
	}
	return q.buf[q.head]
}

// Pop removes and returns the head entry, zeroing its slot so the ring
// holds no reference to it. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, unrolling the live entries to the front in
// queue order.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	if q.n > 0 {
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
	}
	q.buf = buf
	q.head = 0
}
