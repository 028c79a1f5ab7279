// Package sweep is the bounded concurrent sweep engine behind the
// experiment drivers: it fans independent grid points out over a fixed-size
// worker pool and reassembles the results in deterministic point order, so
// a parallel run is byte-identical to a sequential one. The pool size
// defaults to runtime.GOMAXPROCS and is overridden process-wide by the
// cmd tools' -j flag via SetWorkers. Split is the pool's allocation-free
// form for work of a few milliseconds cut into parts: the caller and the
// pool's long-lived helpers claim the parts.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Parts is work cut into parts that may run in any order, concurrently, on
// any goroutine: Part(i) touches only what part i owns.
type Parts interface{ Part(i int) }

// Split runs p.Part(i) for every i in [0, n) and returns when all have run.
// The caller claims parts from an atomic counter, and so does every helper
// of the pool (up to Workers()-1 of them) that is idle when Split starts; a
// helper busy elsewhere is not waited for, so Split never waits on a part
// no one has begun, and a Split inside a Split runs. With one worker it is a
// loop. Once the helpers are up it allocates nothing: p should be a pointer
// the caller keeps (an interface over it is a copy of the pointer).
func Split(n int, p Parts) {
	helpers := min(Workers(), n) - 1
	if helpers <= 0 {
		for i := range n {
			p.Part(i)
		}
		return
	}
	s := pool.get(helpers)
	s.p, s.n = p, int32(n)
	s.next.Store(0)
	for range helpers {
		s.wg.Add(1)
		select {
		case pool.work <- s:
		default:
			s.wg.Done()
		}
	}
	s.claim()
	s.wg.Wait()
	s.p = nil
	pool.put(s)
}

// split is one Split's shared state: its parts, the next unclaimed one, and
// the helpers that took it.
type split struct {
	p    Parts
	n    int32
	next atomic.Int32
	wg   sync.WaitGroup
}

func (s *split) claim() {
	for i := s.next.Add(1) - 1; i < s.n; i = s.next.Add(1) - 1 {
		s.p.Part(int(i))
	}
}

// pool is Split's helpers and the free list of split records. A helper is
// started the first time a Split wants more helpers than are up (at most
// the largest Workers()-1 asked for) and lives as long as the process,
// blocked on work between Splits and holding nothing: a fan-out of a few
// milliseconds cannot afford to start goroutines, and stopping them would
// buy nothing.
var pool = helperPool{work: make(chan *split)}

type helperPool struct {
	sync.Mutex
	started int
	work    chan *split
	free    []*split
}

// get returns a split record, first starting helpers until want are up.
func (h *helperPool) get(want int) *split {
	h.Lock()
	defer h.Unlock()
	for ; h.started < want; h.started++ {
		go func() {
			for s := range h.work {
				s.claim()
				s.wg.Done()
			}
		}()
	}
	if n := len(h.free); n > 0 {
		s := h.free[n-1]
		h.free = h.free[:n-1]
		return s
	}
	return new(split)
}

func (h *helperPool) put(s *split) {
	h.Lock()
	h.free = append(h.free, s)
	h.Unlock()
}

// defaultWorkers holds the SetWorkers override; 0 means "use GOMAXPROCS".
var defaultWorkers atomic.Int32

// SetWorkers fixes the default pool size used by Run. n <= 0 restores the
// default of runtime.GOMAXPROCS(0). It is safe to call concurrently with
// running sweeps; in-flight pools keep the size they started with.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Workers reports the pool size Run will use next.
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Run evaluates fn over the points [0, n) on the default-sized worker pool
// and returns the results in point order. See RunN.
func Run[T any](n int, fn func(point int) (T, error)) ([]T, error) {
	return RunN(0, n, fn)
}

// RunN evaluates fn over the points [0, n) using at most workers goroutines
// (workers <= 0 means the package default). Results are reassembled in
// point order regardless of completion order, so the output is identical to
// a sequential loop over the same points. fn must therefore be
// deterministic per point and must not depend on evaluation order.
//
// Every point is evaluated even when another fails; on failure the error of
// the lowest-numbered failing point is returned (again independent of
// scheduling), wrapped with its point number, alongside a nil slice.
func RunN[T any](workers, n int, fn func(point int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: %d points", n)
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	if workers <= 1 {
		// Degenerate pool: run inline. Same all-points semantics as the
		// concurrent path so -j 1 matches -j N even on the error path.
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		points := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range points {
					out[i], errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			points <- i
		}
		close(points)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep point %d: %w", i, err)
		}
	}
	return out, nil
}
