// Package faults is the deterministic fault layer for the virtual lookup
// engines: a seeded injector that flips bits in compiled engine memory
// images (the single-event-upset model real Virtex-6 BRAM is subject to)
// and kills individual engines outright. Every schedule is a pure function of the
// seed and the engine geometry, so the same seed yields byte-identical
// fault sequences regardless of worker count — the property that lets the
// robustness experiments stay reproducible under -j parallelism.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
)

// Run instrumentation (surfaced by the cmd tools' -stats flag).
var (
	obsSEUsInjected  = obs.NewCounter("faults.seu_injected")
	obsKillsInjected = obs.NewCounter("faults.engine_kills")
)

// Config parameterises an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives every fault stream; equal seeds give equal schedules.
	Seed int64
	// SEURate is the upset probability per data bit per cycle — a FIT-style
	// rate normalised to the engine clock. Real Virtex-6 rates are on the
	// order of 1e-19 per bit-cycle; simulations use exaggerated rates
	// (1e-10 .. 1e-7) so upsets land within feasible run lengths.
	SEURate float64
	// Kill enables a scheduled hard failure of engine KillEngine at cycle
	// KillCycle: the whole engine stops serving lookups until the control
	// plane reloads it.
	Kill       bool
	KillEngine int
	KillCycle  int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SEURate < 0 || math.IsNaN(c.SEURate) || math.IsInf(c.SEURate, 0) {
		return fmt.Errorf("faults: SEU rate %g, want a finite rate >= 0", c.SEURate)
	}
	if c.SEURate >= 1 {
		return fmt.Errorf("faults: SEU rate %g per bit-cycle is >= 1 (every bit upset every cycle)", c.SEURate)
	}
	if c.Kill && (c.KillEngine < 0 || c.KillCycle < 0) {
		return fmt.Errorf("faults: kill of engine %d at cycle %d, want both >= 0", c.KillEngine, c.KillCycle)
	}
	return nil
}

// Upset is one scheduled single-event upset.
type Upset struct {
	// Seq numbers upsets in injection order across all engines.
	Seq    int
	Engine int
	// Cycle is the engine-local cycle at which the bit flips.
	Cycle int64
	// Stage, Index, Bit locate the flipped bit in the engine image
	// (pipeline.Image.FlipBit coordinates).
	Stage int
	Index uint32
	Bit   int
}

// stream is one engine's upset process: exponential inter-arrival times at
// rate SEURate * DataBits upsets per cycle, targets uniform over the data
// bits. Geometry is sampled once at construction; scrub reloads rebuild the
// image through the same deterministic compile, so the geometry is stable
// for the lifetime of a run.
type stream struct {
	rng  *rand.Rand
	img  *pipeline.Image
	bits int64
	// next is the cycle of the next pending upset; < 0 when the stream is
	// exhausted (rate 0 or no bits).
	next int64
}

// mix derives a per-engine seed; the multiplier is the 64-bit golden-ratio
// constant, spreading adjacent engine indices across the seed space.
func mix(seed int64, engine int) int64 {
	return (seed ^ int64(engine+1)*-0x61c8864680b583eb) & math.MaxInt64
}

func newStream(cfg Config, engine int, img *pipeline.Image) *stream {
	s := &stream{
		rng:  rand.New(rand.NewSource(mix(cfg.Seed, engine))),
		img:  img,
		bits: img.DataBits(),
		next: -1,
	}
	if cfg.SEURate > 0 && s.bits > 0 {
		s.next = s.gap(cfg.SEURate)
	}
	return s
}

// gap draws the next exponential inter-arrival, at least one cycle.
func (s *stream) gap(rate float64) int64 {
	mean := 1 / (rate * float64(s.bits))
	g := int64(math.Ceil(s.rng.ExpFloat64() * mean))
	if g < 1 {
		g = 1
	}
	return g
}

// Injector produces the fault schedule for a set of engines. It is driven
// from a single coordinating goroutine (the fault-run loop's slice
// boundaries); it is not safe for concurrent use.
type Injector struct {
	cfg     Config
	streams []*stream
	seq     int
	killed  bool
}

// NewInjector builds the injector over the engines' compiled images (one
// per engine; the merged scheme has a single engine). The images are only
// read for geometry — the caller flips an upset's bit (Image.FlipBit at its
// Stage, Index, Bit) in whatever image copy it runs.
func NewInjector(cfg Config, images []*pipeline.Image) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kill && cfg.KillEngine >= len(images) {
		return nil, fmt.Errorf("faults: kill engine %d with %d engines", cfg.KillEngine, len(images))
	}
	in := &Injector{cfg: cfg}
	for e, img := range images {
		in.streams = append(in.streams, newStream(cfg, e, img))
	}
	return in, nil
}

// UpsetsThrough consumes and returns engine e's upsets with Cycle < limit,
// in cycle order. Calling it with increasing limits walks the schedule; the
// same call sequence always yields the same upsets.
func (in *Injector) UpsetsThrough(engine int, limit int64) []Upset {
	s := in.streams[engine]
	var out []Upset
	for s.next >= 0 && s.next < limit {
		off := s.rng.Int63n(s.bits)
		stage, index, bit, ok := s.img.Locate(off)
		if ok {
			out = append(out, Upset{
				Seq:    in.seq,
				Engine: engine,
				Cycle:  s.next,
				Stage:  stage,
				Index:  index,
				Bit:    bit,
			})
			in.seq++
		}
		s.next += s.gap(in.cfg.SEURate)
	}
	obsSEUsInjected.Add(int64(len(out)))
	return out
}

// KillDue reports — once — that engine e's scheduled hard failure falls
// before limit. Subsequent calls return false.
func (in *Injector) KillDue(engine int, limit int64) bool {
	if !in.cfg.Kill || in.killed || in.cfg.KillEngine != engine {
		return false
	}
	if in.cfg.KillCycle >= limit {
		return false
	}
	in.killed = true
	obsKillsInjected.Inc()
	return true
}
