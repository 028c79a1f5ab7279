// Package planner turns the paper's models into a deployment tool: given K
// networks, a per-network throughput requirement and an expected merging
// efficiency, it enumerates every configuration the repo can build — scheme
// (NV/VS/VM), speed grade, Virtex-6 family member, BRAM packing, balanced
// stage mapping, hybrid distributed RAM — keeps the feasible ones (placement
// succeeds and every network's guaranteed share meets the requirement), and
// returns them ranked by measured power. It answers the question the paper
// leaves to the reader: *which* organisation should this ISP actually
// deploy?
package planner

import (
	"fmt"
	"sort"

	"vrpower/internal/core"
	"vrpower/internal/fpga"
	"vrpower/internal/power"
)

// Requirements describes the deployment to plan for.
type Requirements struct {
	// K is the number of (virtual) networks.
	K int
	// PerVNGbps is the worst-case lookup bandwidth each network must be
	// guaranteed (40-byte packets).
	PerVNGbps float64
	// Profile is the per-network table shape (core.PaperProfile for the
	// calibrated edge table).
	Profile core.TableProfile
	// Alpha is the expected merging efficiency for the merged scheme.
	Alpha float64
	// Schemes restricts the search; nil means all three.
	Schemes []core.Scheme
}

// Candidate is one feasible configuration with its evaluated metrics.
type Candidate struct {
	Config core.Config
	// PowerW and MeasuredW are the analytical and post-P&R totals.
	PowerW    float64
	MeasuredW float64
	// GuaranteedPerVNGbps is the per-network capacity floor: a dedicated
	// engine's line rate for NV/VS, the shared engine's 1/K for VM.
	GuaranteedPerVNGbps float64
	// AggregateGbps is the whole router's worst-case capacity.
	AggregateGbps float64
	// EffMWPerGbps is measured power per aggregate Gbps.
	EffMWPerGbps float64
	// LatencyNS is the pipeline traversal latency.
	LatencyNS float64
	// Devices is the number of FPGAs powered.
	Devices int
}

// Describe renders the candidate's configuration compactly.
func (c Candidate) Describe() string {
	s := fmt.Sprintf("%s on %s %s", c.Config.Scheme, c.Config.Device.Name, c.Config.Grade)
	if c.Config.Mode == fpga.BRAM36Mode {
		s += " 36Kb"
	}
	if c.Config.Balanced {
		s += " balanced"
	}
	if c.Config.DistRAMThreshold > 0 {
		s += " hybrid"
	}
	if c.Devices > 1 {
		s += fmt.Sprintf(" x%d", c.Devices)
	}
	return s
}

// Plan evaluates the search space and returns the feasible candidates,
// cheapest measured power first. An error is returned only for invalid
// requirements; an empty result means nothing feasible.
func Plan(req Requirements) ([]Candidate, error) {
	if req.K <= 0 {
		return nil, fmt.Errorf("planner: K = %d, want > 0", req.K)
	}
	if !(req.PerVNGbps >= 0) {
		return nil, fmt.Errorf("planner: per-VN requirement %g, want >= 0", req.PerVNGbps)
	}
	if !(req.Alpha >= 0 && req.Alpha <= 1) {
		return nil, fmt.Errorf("planner: alpha %g outside [0,1]", req.Alpha)
	}
	schemes := req.Schemes
	if schemes == nil {
		schemes = core.Schemes()
	}
	analyzer := power.NewAnalyzer()

	var out []Candidate
	for _, sc := range schemes {
		for _, grade := range fpga.Grades() {
			for _, dev := range fpga.Family() {
				for _, mode := range []fpga.BRAMMode{fpga.BRAM18Mode, fpga.BRAM36Mode} {
					for _, balanced := range []bool{false, true} {
						for _, distram := range []int64{0, 4096} {
							cfg := core.Config{
								Scheme:           sc,
								K:                req.K,
								Grade:            grade,
								Mode:             mode,
								Balanced:         balanced,
								DistRAMThreshold: distram,
								Device:           dev,
								ClockGating:      true,
							}
							alpha := 0.0
							if sc == core.VM {
								alpha = req.Alpha
							}
							r, err := core.BuildAnalytic(cfg, req.Profile, alpha)
							if err != nil {
								continue // infeasible on this device
							}
							perVN := fpga.ThroughputGbps(r.Fmax(), 1)
							if sc == core.VM {
								perVN /= float64(req.K)
							}
							if perVN < req.PerVNGbps {
								continue
							}
							model, err := r.ModelPower()
							if err != nil {
								return nil, err
							}
							meas, err := r.MeasuredPower(analyzer)
							if err != nil {
								return nil, err
							}
							out = append(out, Candidate{
								Config:              cfg,
								PowerW:              model.Total(),
								MeasuredW:           meas.Total(),
								GuaranteedPerVNGbps: perVN,
								AggregateGbps:       r.ThroughputGbps(),
								EffMWPerGbps:        power.MilliwattsPerGbps(meas.Total(), r.ThroughputGbps()),
								LatencyNS:           r.LatencyNS(),
								Devices:             r.Design().Devices,
							})
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeasuredW != out[j].MeasuredW {
			return out[i].MeasuredW < out[j].MeasuredW
		}
		if out[i].Devices != out[j].Devices {
			return out[i].Devices < out[j].Devices
		}
		return out[i].EffMWPerGbps < out[j].EffMWPerGbps
	})
	return out, nil
}

// Frontier returns the Pareto-efficient candidates on (measured power,
// guaranteed per-VN throughput): each keeps strictly more capacity than any
// cheaper one.
func Frontier(cands []Candidate) []Candidate {
	var out []Candidate
	bestGbps := -1.0
	// cands are cheapest-first; sweep keeping capacity improvements.
	for _, c := range cands {
		if c.GuaranteedPerVNGbps > bestGbps {
			out = append(out, c)
			bestGbps = c.GuaranteedPerVNGbps
		}
	}
	return out
}
