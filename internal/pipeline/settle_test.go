package pipeline

// Directed tests of the settle boundary: the streamed engine walks a lookup
// in the pipe only as far as the stage it has reached, and everything that
// changes what a lookup reads — an upset through Patch, in the serving bank
// or the armed one, the parity check switched on, the bank flip as the commit
// bubble leaves — settles first. Each case is run against Sim in lockstep,
// with the exits and Stats compared at every later step (which settles the
// batched engine every step) and with no read until the change itself.

import (
	"reflect"
	"runtime"
	"testing"
)

// across runs the lookup req into a fresh pair over img, takes r more steps
// so that it has been through stages 0..r, runs change, and finishes. With
// each, the exits and Stats are compared with Sim's after every step; without,
// nothing reads the batched engine between the injection and the change.
func across(t *testing.T, img *Image, parity bool, req Request, r int, each bool, change func(p *pair)) []int {
	t.Helper()
	p := newPair(t, img, parity, 0)
	if each {
		p.every, p.eachStats = 1, true
	}
	p.inject(&req)
	for i := 0; i < r; i++ {
		p.inject(nil)
	}
	change(p)
	p.finish()
	return faultStages(p.out)
}

// served is what faultStages says of one lookup that came out unfaulted;
// faultedIn of one that faulted in stage s.
var served = []int{-1}

func faultedIn(s int) []int { return []int{s} }

// TestStreamPatchAtEveryStage: an upset in every stage s of a lookup's path,
// struck through Patch when the lookup has reached every stage r of a
// 28-stage pipe. With s <= r the lookup has read the old word and is served;
// with s > r it reads the new one and faults there.
func TestStreamPatchAtEveryStage(t *testing.T) {
	tbl := genTable(t, 300, 65)
	pristine := compileSingle(t, tbl, 28)
	req, at := deepPath(t, pristine, routedAddrs(tbl), 12)
	for s := range at {
		for r := 0; r < pristine.Stages(); r++ {
			for _, each := range []bool{false, true} {
				img := pristine.Clone()
				got := across(t, img, true, req, r, each, func(p *pair) { p.upset(img, at[s]) })
				want := served
				if s > r {
					want = faultedIn(s)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("upset in stage %d with the lookup through stage %d (each step read %v): ended %v, want %v", s, r, each, got, want)
				}
			}
		}
	}
}

// TestStreamPatchArmedBankAtEveryStage: the same in the armed bank, for a
// lookup behind the commit bubble, which reads the new image in every stage.
func TestStreamPatchArmedBankAtEveryStage(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	oldImg, newPristine := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	req, at := deepPath(t, newPristine, routedAddrs(newTbl), 10)
	for s := range at {
		for r := 0; r < newPristine.Stages(); r += 3 {
			for _, each := range []bool{false, true} {
				next := newPristine.Clone()
				p := newPair(t, oldImg.Clone(), true, 0)
				if each {
					p.every, p.eachStats = 1, true
				}
				if errS, errB := p.scalar.BeginUpdate(next, 1), p.batched.BeginUpdate(next, 1); errS != nil || errB != nil {
					t.Fatal(errS, errB)
				}
				p.bubble() // the commit bubble: the lookup behind it reads next
				p.inject(&req)
				for i := 0; i < r; i++ {
					p.inject(nil)
				}
				p.upset(next, at[s])
				p.finish()
				want := served
				if s > r {
					want = faultedIn(s)
				}
				if got := faultStages(p.out); !reflect.DeepEqual(got, want) {
					t.Fatalf("armed-bank upset in stage %d with the lookup through stage %d (each step read %v): ended %v, want %v", s, r, each, got, want)
				}
			}
		}
	}
}

// TestStreamParitySwitchAtEveryStage: a stale parity bit in every stage s of
// a lookup's path, the check switched on when the lookup has reached every
// stage r. With s <= r it read the word unchecked and is served; with s > r
// the check meets it and the lookup faults there.
func TestStreamParitySwitchAtEveryStage(t *testing.T) {
	tbl := genTable(t, 300, 65)
	pristine := compileSingle(t, tbl, 28)
	req, at := deepPath(t, pristine, routedAddrs(tbl), 12)
	for s := range at {
		img := pristine.Clone()
		// Only the stored parity bit: unchecked, the walk reads on unchanged.
		poke(img, at[s].Stage, at[s].Entry, func(e *Entry) { e.Parity ^= 1 })
		for r := 0; r < img.Stages(); r++ {
			for _, each := range []bool{false, true} {
				got := across(t, img, false, req, r, each, func(p *pair) {
					p.scalar.EnableParityCheck()
					p.batched.EnableParityCheck()
				})
				want := served
				if s > r {
					want = faultedIn(s)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parity switched on with a stale word in stage %d and the lookup through stage %d (each step read %v): ended %v, want %v", s, r, each, got, want)
				}
			}
		}
	}
}

// TestStreamCommitLeavesBetweenSettles: lookups ahead of the commit bubble
// and behind it, a settle (a Stats read) before the bubble leaves, then gap
// steps with no read — the bank flip falls among them for most gaps — and
// another settle. The engines must agree at both reads and on every exit, and
// the lookups keep the answer of the bank they entered on.
func TestStreamCommitLeavesBetweenSettles(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	oldImg, newImg := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	var moved []Request
	for _, a := range routedAddrs(oldTbl) {
		if Lookup(oldImg, Request{Addr: a}) != Lookup(newImg, Request{Addr: a}) {
			moved = append(moved, Request{Addr: a, Trace: len(moved)%2 == 0})
		}
	}
	if len(moved) < 8 {
		t.Fatalf("%d moved addresses, want 8", len(moved))
	}
	for gap := 1; gap <= oldImg.Stages()+2; gap++ {
		p := newPair(t, oldImg.Clone(), true, 0)
		for i := range moved[:4] {
			p.inject(&moved[i])
		}
		next := newImg.Clone()
		if errS, errB := p.scalar.BeginUpdate(next, 2), p.batched.BeginUpdate(next, 2); errS != nil || errB != nil {
			t.Fatal(errS, errB)
		}
		p.bubble()
		p.inject(&moved[4])
		p.bubble() // the commit bubble
		for i := range moved[5:8] {
			p.inject(&moved[5+i])
		}
		p.stats()
		for i := 0; i < gap; i++ {
			p.inject(nil)
		}
		p.stats()
		p.finish()
		if len(p.out) != 8 {
			t.Fatalf("gap %d: %d exits, want 8", gap, len(p.out))
		}
		for i, res := range p.out {
			img := oldImg
			if i >= 5 {
				img = newImg
			}
			if want := Lookup(img, res.Request); res.NHI != want || res.Faulted {
				t.Fatalf("gap %d: lookup %d served %d (faulted %v), want %d from the bank it entered on", gap, i, res.NHI, res.Faulted, want)
			}
		}
	}
}

// TestAuditAllocatesNoStreamingState: an audit's throwaway engine never
// streams, so over 64 probes it allocates the engine and its counts and no
// more — no log, no checkpoints and no arena, which it borrows. A streaming
// window of Stages+256 32-byte slots, as engines once allocated up front,
// would alone be more than the bound.
func TestAuditAllocatesNoStreamingState(t *testing.T) {
	tbl := genTable(t, 300, 64)
	img := compileSingle(t, tbl, 28)
	probes := make([]Probe, 64)
	for i := range probes {
		a := tbl.Routes[i].Prefix.Addr
		probes[i] = Probe{Addr: a, Want: Lookup(img, Request{Addr: a})}
	}
	AuditImage(img, probes) // the first borrows a fresh arena
	var m0, m1 runtime.MemStats
	const calls = 20
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		if res := AuditImage(img, probes); !res.Clean() || res.Probes != 64 {
			t.Fatalf("audit: %+v", res)
		}
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / calls
	if bound := uint64(2048); per > bound {
		t.Errorf("an audit of 64 probes allocates %d bytes, want at most %d (a window was %d)", per, bound, (img.Stages()+256)*32)
	}
	t.Logf("an audit of 64 probes allocates %d bytes", per)
}
