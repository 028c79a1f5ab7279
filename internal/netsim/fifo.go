package netsim

// fifo is a first-in-first-out queue that stays on one backing array: pop
// advances a head index and push slides the live elements back to the front
// once the popped prefix is at least as long as they are, so a queue in
// steady state allocates nothing — the serve loops' ingress queues put no
// garbage-collector work inside a run.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head >= f.len() {
		n := copy(f.buf, f.buf[f.head:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.reset()
	}
	return v
}

func (f *fifo[T]) reset() { f.buf, f.head = f.buf[:0], 0 }
