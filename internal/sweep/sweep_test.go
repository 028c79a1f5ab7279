package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunNOrdersResults(t *testing.T) {
	// Finish points in reverse order on purpose: later points sleep less.
	const n = 32
	got, err := RunN(8, n, func(p int) (int, error) {
		time.Sleep(time.Duration(n-p) * 100 * time.Microsecond)
		return p * p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("point %d = %d, want %d (results out of order)", i, v, i*i)
		}
	}
}

func TestRunNMatchesSequential(t *testing.T) {
	fn := func(p int) (string, error) { return fmt.Sprintf("pt%03d", p), nil }
	seq, err := RunN(1, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunN(8, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d: sequential %q vs parallel %q", i, seq[i], par[i])
		}
	}
}

func TestRunNErrorIsLowestPoint(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := RunN(workers, 20, func(p int) (int, error) {
			if p == 7 || p == 13 {
				return 0, boom
			}
			return p, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if want := "sweep point 7: boom"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q (lowest failing point)", workers, err, want)
		}
	}
}

func TestRunNEvaluatesEveryPointDespiteError(t *testing.T) {
	var calls atomic.Int64
	_, err := RunN(4, 16, func(p int) (int, error) {
		calls.Add(1)
		if p == 0 {
			return 0, errors.New("early")
		}
		return p, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 16 {
		t.Fatalf("evaluated %d points, want all 16", calls.Load())
	}
}

func TestRunNBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	_, err := RunN(workers, 64, func(p int) (int, error) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent points, pool bound is %d", m, workers)
	}
}

func TestRunNDegenerateInputs(t *testing.T) {
	if out, err := RunN(4, 0, func(int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v, want empty, nil", out, err)
	}
	if _, err := RunN(4, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("n=-1: expected error")
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d after reset, want GOMAXPROCS %d", Workers(), runtime.GOMAXPROCS(0))
	}
	SetWorkers(-5) // negative behaves like reset
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d after SetWorkers(-5), want GOMAXPROCS", Workers())
	}
}

func TestRunUsesDefaultPool(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	var cur, max atomic.Int64
	_, err := Run(16, func(p int) (int, error) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > 2 {
		t.Fatalf("observed %d concurrent points with SetWorkers(2)", m)
	}
}

// spin burns CPU deterministically so the benchmark's speedup reflects the
// pool, not the scheduler.
func spin(iters int) float64 {
	x := 1.0001
	for i := 0; i < iters; i++ {
		x = x*x - 1.0001
		if x > 2 {
			x -= 2
		}
	}
	return x
}

// BenchmarkRunWorkers shows the pool scaling on CPU-bound points: j=1 is
// the sequential baseline, j=GOMAXPROCS should run measurably faster on any
// multicore host.
func BenchmarkRunWorkers(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("j=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunN(w, 64, func(p int) (float64, error) {
					return spin(200_000), nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countParts counts the runs of each part; Part(i) of a nested split runs
// a Split of its own.
type countParts struct {
	runs   []atomic.Int32
	nested bool
}

func (c *countParts) Part(i int) {
	c.runs[i].Add(1)
	if c.nested {
		inner := &countParts{runs: make([]atomic.Int32, 4)}
		Split(len(inner.runs), inner)
		for j := range inner.runs {
			if inner.runs[j].Load() != 1 {
				panic(fmt.Sprintf("nested part %d ran %d times", j, inner.runs[j].Load()))
			}
		}
	}
}

// TestSplitRunsEveryPartOnce: at one worker (a loop) and at eight, and with
// splits inside the parts (a helper busy in one is not waited for), Split
// returns after every part has run exactly once.
func TestSplitRunsEveryPartOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		SetWorkers(workers)
		for _, nested := range []bool{false, true} {
			c := &countParts{runs: make([]atomic.Int32, 16), nested: nested}
			Split(len(c.runs), c)
			for i := range c.runs {
				if n := c.runs[i].Load(); n != 1 {
					t.Fatalf("workers=%d nested=%v: part %d ran %d times", workers, nested, i, n)
				}
			}
		}
	}
}

// TestSplitAllocatesNothing: once its helpers are up, a Split allocates
// nothing, on the pool or inline.
func TestSplitAllocatesNothing(t *testing.T) {
	defer SetWorkers(0)
	c := &countParts{runs: make([]atomic.Int32, 16)}
	for _, workers := range []int{1, 2} {
		SetWorkers(workers)
		Split(len(c.runs), c)
		if n := testing.AllocsPerRun(100, func() { Split(len(c.runs), c) }); n != 0 {
			t.Errorf("workers=%d: %v allocations a Split", workers, n)
		}
	}
}
