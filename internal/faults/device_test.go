package faults

import (
	"reflect"
	"testing"
)

func TestDeviceConfigValidate(t *testing.T) {
	bad := []DeviceConfig{
		{Devices: 0},
		{Devices: 2, Crashes: -1},
		{Devices: 2, Crashes: 3, Window: 1000},
		{Devices: 2, Flaky: 3},
		{Devices: 2, FlakyFailProb: 1.0},
		{Devices: 2, FlakyFailProb: -0.1},
		{Devices: 2, Crashes: 1, Window: 3},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", c)
		}
		if _, err := NewDeviceInjector(c); err == nil {
			t.Fatalf("NewDeviceInjector accepted %+v", c)
		}
	}
	if err := (DeviceConfig{Devices: 4, Crashes: 2, Brownouts: 1, Flaky: 1, Window: 4096}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceScheduleDeterministic(t *testing.T) {
	cfg := DeviceConfig{Seed: 7, Devices: 8, Crashes: 3, Brownouts: 2, Flaky: 2, Window: 8192}
	a, err := NewDeviceInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeviceInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Crashes(), b.Crashes()) {
		t.Fatalf("crash decks differ for equal seeds:\n%v\n%v", a.Crashes(), b.Crashes())
	}
	if !reflect.DeepEqual(a.Brownouts(), b.Brownouts()) {
		t.Fatalf("brownout decks differ:\n%v\n%v", a.Brownouts(), b.Brownouts())
	}
	if !reflect.DeepEqual(a.FlakyDevices(), b.FlakyDevices()) {
		t.Fatalf("flaky sets differ: %v vs %v", a.FlakyDevices(), b.FlakyDevices())
	}
	cfg.Seed = 8
	c, err := NewDeviceInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Crashes(), c.Crashes()) && reflect.DeepEqual(a.Brownouts(), c.Brownouts()) {
		t.Fatal("seed change did not reshuffle the deck")
	}
}

func TestCrashDeckShape(t *testing.T) {
	cfg := DeviceConfig{Seed: 42, Devices: 6, Crashes: 4, Window: 16384}
	in, err := NewDeviceInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashes := in.Crashes()
	if len(crashes) != 4 {
		t.Fatalf("deck has %d crashes, want 4", len(crashes))
	}
	seen := map[int]bool{}
	var prev int64 = -1
	for i, cr := range crashes {
		if cr.Seq != i {
			t.Fatalf("crash %d has seq %d", i, cr.Seq)
		}
		if seen[cr.Device] {
			t.Fatalf("device %d crashes twice", cr.Device)
		}
		seen[cr.Device] = true
		if cr.Cycle < cfg.Window/4 || cr.Cycle >= 3*cfg.Window/4 {
			t.Fatalf("crash cycle %d outside middle half of %d", cr.Cycle, cfg.Window)
		}
		if cr.Cycle < prev {
			t.Fatalf("crashes out of cycle order: %v", crashes)
		}
		prev = cr.Cycle
	}
}

func TestCrashesThroughCursor(t *testing.T) {
	in, err := NewDeviceInjector(DeviceConfig{Seed: 3, Devices: 5, Crashes: 3, Window: 8192})
	if err != nil {
		t.Fatal(err)
	}
	deck := in.Crashes()
	var walked []DeviceCrash
	// Walking in slice-sized steps must consume each crash exactly once.
	for limit := int64(0); limit <= 8192; limit += 512 {
		walked = append(walked, in.CrashesThrough(limit)...)
	}
	if !reflect.DeepEqual(walked, deck) {
		t.Fatalf("cursor walk %v != deck %v", walked, deck)
	}
	if got := in.CrashesThrough(1 << 30); len(got) != 0 {
		t.Fatalf("cursor replayed %v after exhaustion", got)
	}
}

func TestBrownedOutAlternateCycles(t *testing.T) {
	in, err := NewDeviceInjector(DeviceConfig{Seed: 11, Devices: 3, Brownouts: 1, Window: 4096})
	if err != nil {
		t.Fatal(err)
	}
	w := in.Brownouts()[0]
	if w.End-w.Start != 4096/8 {
		t.Fatalf("brownout %v not Window/8 long", w)
	}
	for cyc := w.Start; cyc < w.End; cyc++ {
		if got := w.SitsOut(cyc); got != (cyc%2 != 0) {
			t.Fatalf("cycle %d browned=%v, want alternate cycles only", cyc, got)
		}
	}
	for _, cyc := range []int64{w.Start - 2, w.Start - 1, w.End, w.End + 1} {
		if w.SitsOut(cyc) {
			t.Fatalf("brownout leaks outside its window at cycle %d", cyc)
		}
	}
}

func TestFlakyStreamAlignment(t *testing.T) {
	cfg := DeviceConfig{Seed: 19, Devices: 4, Flaky: 1, Window: 4096}
	a, err := NewDeviceInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDeviceInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fd := a.FlakyDevices()[0]
	sound := (fd + 1) % 4
	// Interleave sound-device installs differently on b: verdicts on the
	// flaky device must be unaffected, since sound installs draw nothing.
	var va, vb []bool
	for i := 0; i < 64; i++ {
		va = append(va, a.FailMigration(fd))
		if b.FailMigration(sound) {
			t.Fatal("sound device failed an install")
		}
		vb = append(vb, b.FailMigration(fd))
		b.FailMigration(sound)
		b.FailMigration(sound)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatal("flaky verdict stream perturbed by sound-device installs")
	}
	fails := 0
	for _, v := range va {
		if v {
			fails++
		}
	}
	// 64 draws at the 0.75 default: both outcomes must appear.
	if fails == 0 || fails == len(va) {
		t.Fatalf("degenerate flaky stream: %d/%d failures", fails, len(va))
	}
}
