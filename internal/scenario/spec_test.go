package scenario

import (
	"strings"
	"testing"
)

func TestParseFullCompoundSpec(t *testing.T) {
	s, err := Parse("load=surge,faults=seu:1e-9,churn=100x50,power-cap=45")
	if err != nil {
		t.Fatal(err)
	}
	if s.Load.Kind != LoadSurge || s.Load.P0 != 0.3 || s.Load.P1 != 0.9 {
		t.Fatalf("surge defaults: %+v", s.Load)
	}
	if s.SEURate != 1e-9 {
		t.Fatalf("SEU rate %g", s.SEURate)
	}
	if s.Churn == nil || s.Churn.Batches != 100 || s.Churn.Ops != 50 || s.Churn.TargetVN != -1 {
		t.Fatalf("churn: %+v", s.Churn)
	}
	if s.CapW != 45 {
		t.Fatalf("cap %g", s.CapW)
	}
	if s.Cycles != 32768 || s.Slice != 1024 || s.Queue != 64 || s.Seed != 1 {
		t.Fatalf("defaults: %+v", s)
	}
	got := s.Stressors()
	want := []string{"load", "faults", "churn", "power-cap"}
	if len(got) != len(want) {
		t.Fatalf("stressors %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stressors %v, want %v", got, want)
		}
	}
}

func TestParseEveryKey(t *testing.T) {
	s, err := Parse("load=const:0.5,faults=seu:2e-8,kill=1@5000,churn=4x64:vn=2,power-cap=30,power-cap-device=12,power-cap-lift=8000,cycles=16384,slice=512,queue=32,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if s.Load.Kind != LoadConst || s.Load.P0 != 0.5 {
		t.Fatalf("load: %+v", s.Load)
	}
	if s.Kill == nil || s.Kill.Engine != 1 || s.Kill.Cycle != 5000 {
		t.Fatalf("kill: %+v", s.Kill)
	}
	if s.Churn.TargetVN != 2 {
		t.Fatalf("churn vn: %+v", s.Churn)
	}
	if s.DeviceCapW != 12 || s.LiftCycle != 8000 || s.Cycles != 16384 || s.Slice != 512 || s.Queue != 32 || s.Seed != 7 {
		t.Fatalf("parsed: %+v", s)
	}
}

func TestParseLoadShapes(t *testing.T) {
	cases := []struct {
		spec string
		at   []struct {
			cyc, total int64
			want       float64
		}
	}{
		{"load=saturate", []struct {
			cyc, total int64
			want       float64
		}{{0, 100, 1}, {99, 100, 1}}},
		{"load=const:0.25", []struct {
			cyc, total int64
			want       float64
		}{{0, 100, 0.25}, {50, 100, 0.25}}},
		{"load=surge:0.2:0.8:100:200", []struct {
			cyc, total int64
			want       float64
		}{{99, 1000, 0.2}, {100, 1000, 0.8}, {299, 1000, 0.8}, {300, 1000, 0.2}}},
		{"load=burst:0.6:100:0.25", []struct {
			cyc, total int64
			want       float64
		}{{0, 1000, 0.6}, {24, 1000, 0.6}, {25, 1000, 0}, {99, 1000, 0}, {100, 1000, 0.6}}},
		{"load=ramp:0:1", []struct {
			cyc, total int64
			want       float64
		}{{0, 101, 0}, {100, 101, 1}, {50, 101, 0.5}}},
	}
	for _, c := range cases {
		s, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		for _, a := range c.at {
			if got := s.Load.At(a.cyc, a.total); got != a.want {
				t.Errorf("%s At(%d,%d) = %g, want %g", c.spec, a.cyc, a.total, got, a.want)
			}
		}
		// The shape must render back to parseable spec syntax.
		if _, err := parseLoad(s.Load.String()); err != nil {
			t.Errorf("%s: String() %q does not re-parse: %v", c.spec, s.Load.String(), err)
		}
	}
}

func TestParseSurgeDefaultWindow(t *testing.T) {
	s, err := Parse("load=surge:0.1:0.9,cycles=4096")
	if err != nil {
		t.Fatal(err)
	}
	// Default window: [cycles/4, cycles/4 + cycles/2).
	if got := s.Load.At(1023, s.Cycles); got != 0.1 {
		t.Fatalf("pre-surge %g", got)
	}
	if got := s.Load.At(1024, s.Cycles); got != 0.9 {
		t.Fatalf("surge start %g", got)
	}
	if got := s.Load.At(3071, s.Cycles); got != 0.9 {
		t.Fatalf("surge end-1 %g", got)
	}
	if got := s.Load.At(3072, s.Cycles); got != 0.1 {
		t.Fatalf("post-surge %g", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty spec"},
		{"load", "not key=value"},
		{"bogus=1", `unknown key "bogus"`},
		{"load=const:0.5,load=saturate", `duplicate key "load"`},
		{"load=warp:1", "unknown load shape"},
		{"load=const", "takes 1 argument"},
		{"load=const:1.5", "outside [0,1]"},
		{"load=const:abc", "not a number"},
		{"load=surge:0.1", "takes 0, 2 or 4 arguments"},
		{"load=surge:0.1:0.9:-5:100", "want start >= 0"},
		{"load=burst:0.5:0:0.5", "period 0"},
		{"load=burst:0.5:100:1.5", "duty 1.5 outside (0,1]"},
		{"faults=1e-9", "want faults=seu:RATE"},
		{"faults=seu:0", "outside (0,1)"},
		{"faults=seu:1", "outside (0,1)"},
		{"kill=3", "want kill=ENGINE@CYCLE"},
		{"kill=-1@100", "want both >= 0"},
		{"kill=0@50000", "past the 32768-cycle run"},
		{"churn=100", "want churn=BATCHESxOPS"},
		{"churn=0x50", "want both >= 1"},
		{"churn=4x64:target=2", "want vn=N"},
		{"power-cap=0", "want > 0"},
		{"power-cap=-3", "want > 0"},
		{"power-cap-device=0", "want > 0"},
		{"power-cap=5,power-cap-lift=0", "want it inside [1,32768)"},
		{"power-cap=5,power-cap-lift=-2", "want it inside [1,32768)"},
		{"power-cap-lift=4096,power-cap=5,cycles=4096", "want it inside [1,4096)"},
		{"power-cap-lift=x", "not an integer"},
		{"power-cap-lift=100", "power-cap-lift needs power-cap= or power-cap-device="},
		{"fleet=2,power-cap=40,power-cap-lift=100", "power-cap-lift beside fleet="},
		{"cycles=0", "want >= 1"},
		{"slice=0", "want >= 1"},
		{"queue=0", "want >= 1"},
		{"seed=x", "not an integer"},
		{"load=saturate,", "empty item"},
		{",load=saturate", "empty item"},
		{"load=saturate,,seed=2", "empty item"},
		{"load=saturate, ,seed=2", "empty item"},
		{"chaos=crash:2", "need churn="},
		{"chaos=stall:1", "need faults="},
		{"churn=4x16,chaos=crash", "want KIND:N"},
		{"churn=4x16,chaos=crash:0", "want >= 1"},
		{"churn=4x16,chaos=crash:x", "not an integer"},
		{"churn=4x16,chaos=crash:1+crash:2", `duplicate chaos kind "crash"`},
		{"churn=4x16,chaos=meteor:1", `unknown chaos kind "meteor"`},
		{"fleet=0", "0 devices, want >= 1"},
		{"fleet=x", "not an integer"},
		{"fleet=2:x=1", `option "x=1", want spare=M`},
		{"fleet=2:spare=-1", "-1 spares, want >= 0"},
		{"fleet=2:spare=y", "not an integer"},
		{"fleet=2,faults=seu:1e-9", "cannot compose with a fleet run"},
		{"fleet=2,kill=0@100", "cannot compose with a fleet run"},
		{"fleet=2,churn=4x16", "cannot compose with a fleet run"},
		{"fleet=2,chaos=crash:1", "a fleet run takes devcrash, brownout or flaky"},
		{"fleet=2,chaos=devcrash:3", "over fleet=2 devices, want distinct victims"},
		{"chaos=devcrash:1", "need fleet="},
		{"chaos=brownout:1", "need fleet="},
		{"chaos=flaky:1", "need fleet="},
		{"fleet=2,chaos=devcrash:0", "want >= 1"},
		// Non-finite numbers: NaN passes every range check, and ±Inf would
		// run a load or a cap no run can mean.
		{"load=const:NaN", `"NaN" is not a finite number`},
		{"load=surge:0.1:+Inf", `"+Inf" is not a finite number`},
		{"load=burst:0.5:100:nan", `"nan" is not a finite number`},
		{"faults=seu:NaN", `"NaN" is not a finite number`},
		{"faults=seu:-Inf", `"-Inf" is not a finite number`},
		{"power-cap=NaN", `"NaN" is not a finite number`},
		{"power-cap=Inf", `"Inf" is not a finite number`},
		{"power-cap-device=NaN", `"NaN" is not a finite number`},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %q, want substring %q", c.spec, err, c.want)
		}
	}
}

func TestParseChaos(t *testing.T) {
	s, err := Parse("load=const:0.4,faults=seu:1e-9,churn=10x32,chaos=crash:3+stall:2+torn:1+falsepos:1")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Chaos
	if c == nil || c.Crashes != 3 || c.Stalls != 2 || c.Torn != 1 || c.FalsePositives != 1 {
		t.Fatalf("chaos: %+v", c)
	}
	if c.Total() != 7 {
		t.Fatalf("Total %d, want 7", c.Total())
	}
	got := s.Stressors()
	want := []string{"load", "faults", "chaos", "churn"}
	if len(got) != len(want) {
		t.Fatalf("stressors %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stressors %v, want %v", got, want)
		}
	}
	// Crash-only chaos needs churn but not faults=.
	if _, err := Parse("churn=4x16,chaos=crash:1"); err != nil {
		t.Fatalf("crash-only chaos with churn: %v", err)
	}
	// Scrub-side chaos is satisfied by kill= as well as faults=.
	if _, err := Parse("kill=0@1000,chaos=stall:1"); err != nil {
		t.Fatalf("stall chaos with kill: %v", err)
	}
}

func TestParseFleet(t *testing.T) {
	s, err := Parse("load=const:0.4,fleet=4:spare=2,chaos=devcrash:1+brownout:2+flaky:1,power-cap=60")
	if err != nil {
		t.Fatal(err)
	}
	if s.Fleet == nil || s.Fleet.Devices != 4 || s.Fleet.Spares != 2 {
		t.Fatalf("fleet: %+v", s.Fleet)
	}
	c := s.Chaos
	if c == nil || c.DeviceCrashes != 1 || c.Brownouts != 2 || c.FlakyDevices != 1 {
		t.Fatalf("chaos: %+v", c)
	}
	if c.DeviceTotal() != 4 || c.CtrlTotal() != 0 || c.Total() != 4 {
		t.Fatalf("chaos totals: device %d ctrl %d total %d", c.DeviceTotal(), c.CtrlTotal(), c.Total())
	}
	got := s.Stressors()
	want := []string{"load", "fleet", "chaos", "power-cap"}
	if len(got) != len(want) {
		t.Fatalf("stressors %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stressors %v, want %v", got, want)
		}
	}
	// Spares default to zero; a bare fleet needs no chaos.
	s, err = Parse("fleet=2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Fleet.Devices != 2 || s.Fleet.Spares != 0 {
		t.Fatalf("bare fleet: %+v", s.Fleet)
	}
}

func TestKillBeyondExplicitCycles(t *testing.T) {
	// Order independence: cycles may come after kill in the spec.
	if _, err := Parse("kill=0@40000,cycles=65536"); err != nil {
		t.Fatalf("kill before larger cycles: %v", err)
	}
	if _, err := Parse("cycles=1000,kill=0@40000"); err == nil {
		t.Fatal("kill past explicit cycles accepted")
	}
}
