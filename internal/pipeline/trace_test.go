package pipeline

// Tests for per-lookup flight tracing: traced requests record their full
// stage traversal, untraced requests stay on the allocation-free fast path.

import (
	"math/rand"
	"testing"

	"vrpower/internal/ip"
)

func TestTraceRecordsStageVisits(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 7), 28)
	rng := rand.New(rand.NewSource(9))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32()), Trace: i%4 == 0}
	}
	results, _, err := NewSim(img).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for i, res := range results {
		if !reqs[i].Trace {
			if res.Visits != nil {
				t.Fatalf("untraced lookup %d recorded %d visits", i, len(res.Visits))
			}
			continue
		}
		traced++
		if len(res.Visits) == 0 {
			t.Fatalf("traced lookup %d recorded no visits", i)
		}
		if res.Visits[0].Stage != 0 {
			t.Fatalf("traced lookup %d first visit at stage %d, want 0", i, res.Visits[0].Stage)
		}
		for j := 1; j < len(res.Visits); j++ {
			if res.Visits[j].Stage < res.Visits[j-1].Stage {
				t.Fatalf("traced lookup %d visits out of stage order at %d", i, j)
			}
		}
		// Tracing must not perturb resolution.
		if want := Lookup(img, reqs[i]); res.NHI != want {
			t.Fatalf("traced lookup %d NHI = %d, want %d", i, res.NHI, want)
		}
	}
	if traced == 0 {
		t.Fatal("no traced lookups in the run")
	}
}

func TestTraceMarksFaultingAccess(t *testing.T) {
	img := compileSingle(t, genTable(t, 200, 8), 28)
	// Corrupt one root child pointer so lookups through it fault on the
	// out-of-range address check.
	poke(img, 0, 0, func(root *Entry) { root.Child = [2]uint32{1 << 30, 1 << 30} })
	sim := NewSim(img)
	rng := rand.New(rand.NewSource(10))
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32()), Trace: true}
	}
	results, _, err := sim.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for i, res := range results {
		if !res.Faulted {
			continue
		}
		faulted++
		last := res.Visits[len(res.Visits)-1]
		if !last.Fault {
			t.Fatalf("faulted lookup %d: terminating visit not marked Fault", i)
		}
		if res.NHI != ip.NoRoute {
			t.Fatalf("faulted lookup %d resolved NHI %d", i, res.NHI)
		}
	}
	if faulted == 0 {
		t.Fatal("corrupted image produced no faulted lookups")
	}
}

// TestUntracedInjectAllocationFree guards the disabled-tracing hot path:
// once the flight free list is primed (pipeline depth flights), an untraced
// Inject allocates nothing.
func TestUntracedInjectAllocationFree(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 7), 28)
	sim := NewSim(img)
	req := Request{Addr: ip.Addr(0x0a000001)}
	for i := 0; i < 2*img.Stages(); i++ {
		sim.Inject(&req)
	}
	if n := testing.AllocsPerRun(2000, func() { sim.Inject(&req) }); n != 0 {
		t.Fatalf("untraced Inject allocates %.2f per op, want 0 (pooled flights)", n)
	}
}
