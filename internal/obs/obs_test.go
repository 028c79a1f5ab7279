package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	Reset()
	c := NewCounter("test.counter.basics")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	c.Add(-5) // monotonic: negative adds are ignored
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if NewCounter("test.counter.basics") != c {
		t.Fatal("NewCounter is not idempotent by name")
	}
}

func TestCounterConcurrent(t *testing.T) {
	Reset()
	c := NewCounter("test.counter.concurrent")
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
}

func TestHistogramBasics(t *testing.T) {
	Reset()
	h := NewHistogram("test.hist.basics")
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond, 5 * time.Microsecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if got := h.Mean(); got != 3*time.Microsecond {
		t.Fatalf("mean = %v, want 3µs", got)
	}
	// All three observations are under 8µs, so every quantile's bucket
	// upper bound is at most 8192 ns.
	if q := h.Quantile(0.99); q > 8192*time.Nanosecond {
		t.Fatalf("p99 bound = %v, want <= 8.192µs", q)
	}
	if q := h.Quantile(0.5); q < time.Microsecond {
		t.Fatalf("p50 bound = %v, want >= observed 1µs bucket", q)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	Reset()
	h := NewHistogram("test.hist.edges")
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(-time.Second) // clamps to 0
	h.Observe(0)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.Mean() != 0 {
		t.Fatalf("mean = %v, want 0", h.Mean())
	}
}

// ObserveValueN is n ObserveValue calls at the cost of one: count, sum and
// every bucket must read the same, for values in any bucket and for the
// clamped negative and the n <= 0 no-op.
func TestObserveValueNMatchesRepeatedObserve(t *testing.T) {
	Reset()
	one, bulk := NewValueHistogram("test.hist.one", "pJ"), NewValueHistogram("test.hist.bulk", "pJ")
	for _, c := range []struct{ v, n int64 }{{0, 3}, {1, 1}, {7, 5}, {1024, 2}, {-9, 4}, {1 << 40, 6}, {5, 0}, {5, -2}} {
		for i := int64(0); i < c.n; i++ {
			one.ObserveValue(c.v)
		}
		bulk.ObserveValueN(c.v, c.n)
	}
	if one.Count() != 21 || bulk.Count() != one.Count() || bulk.sum.Load() != one.sum.Load() {
		t.Fatalf("bulk count %d sum %d, repeated count %d sum %d (want 21 observations)",
			bulk.Count(), bulk.sum.Load(), one.Count(), one.sum.Load())
	}
	for i := range one.buckets {
		if got, want := bulk.buckets[i].Load(), one.buckets[i].Load(); got != want {
			t.Errorf("bucket %d: bulk %d, repeated %d", i, got, want)
		}
	}
}

func TestBucketFor(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1 << 62, bucketCount - 1}} {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	Reset()
	c := NewCounter("test.allocs.counter")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter hot path allocates %.1f per op, want 0", n)
	}
	h := NewHistogram("test.allocs.hist")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram hot path allocates %.1f per op, want 0", n)
	}
}

func TestResetAndReport(t *testing.T) {
	Reset()
	c := NewCounter("test.report.counter")
	h := NewHistogram("test.report.hist")
	c.Add(7)
	h.Observe(time.Millisecond)
	rep := Report()
	if !strings.Contains(rep, "test.report.counter") || !strings.Contains(rep, "test.report.hist") {
		t.Fatalf("report missing active metrics:\n%s", rep)
	}
	Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset did not zero metrics")
	}
	if rep := Report(); !strings.Contains(rep, "no activity recorded") {
		t.Fatalf("report after Reset should be empty, got:\n%s", rep)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	// Repeated runs in one process re-request the same metric names; they
	// must get the same instance back, never a shadowing re-registration
	// that would fork the counts.
	c1 := NewCounter("test.idempotent.counter")
	c1.Add(3)
	c2 := NewCounter("test.idempotent.counter")
	if c1 != c2 {
		t.Fatal("NewCounter returned a second instance for one name")
	}
	if c2.Value() != 3 {
		t.Fatalf("re-registered counter lost its count: %d", c2.Value())
	}
	h1 := NewHistogram("test.idempotent.hist")
	h1.Observe(time.Millisecond)
	if h2 := NewHistogram("test.idempotent.hist"); h2 != h1 || h2.Count() != 1 {
		t.Fatal("NewHistogram returned a second instance for one name")
	}
}

func TestSnapshotScopesAReport(t *testing.T) {
	Reset()
	c := NewCounter("test.snap.counter")
	h := NewHistogram("test.snap.hist")
	c.Add(10)
	h.Observe(time.Millisecond)
	snap := TakeSnapshot()
	if snap.Counter("test.snap.counter") != 10 {
		t.Fatalf("snapshot counter = %d, want 10", snap.Counter("test.snap.counter"))
	}
	// Nothing moved: the delta report is empty even though totals are not.
	if rep := ReportSince(snap); !strings.Contains(rep, "no activity recorded") {
		t.Fatalf("delta report with no activity:\n%s", rep)
	}
	c.Add(5)
	h.Observe(3 * time.Millisecond)
	if d := snap.CounterDelta("test.snap.counter"); d != 5 {
		t.Fatalf("CounterDelta = %d, want 5", d)
	}
	rep := ReportSince(snap)
	if !strings.Contains(rep, "test.snap.counter") || !strings.Contains(rep, "           5") {
		t.Fatalf("delta report missing counter growth:\n%s", rep)
	}
	// The histogram delta covers only the second observation: one obs with
	// a ~3ms mean, not the ~2ms mean of the full series.
	if !strings.Contains(rep, "test.snap.hist") || !strings.Contains(rep, "1 obs, mean 3ms") {
		t.Fatalf("delta report histogram wrong:\n%s", rep)
	}
	// The unscoped report still shows the full totals.
	if full := Report(); !strings.Contains(full, "          15") {
		t.Fatalf("full report lost totals:\n%s", full)
	}
}
