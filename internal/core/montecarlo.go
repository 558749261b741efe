package core

import (
	"fmt"

	"apujoin/internal/cost"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// MonteCarloPhase evaluates the cost model over `runs` random PL ratio
// settings for one phase ("build" or "probe"), reproducing the paper's
// Fig. 9 CDFs, and returns the sampled times in ascending order together
// with the time of the model-optimized ratios ("Ours"). The model prices
// under the join's static environment; nothing of the join is executed
// beyond the pilot.
func MonteCarloPhase(r, s rel.Relation, opt Options, phase string, runs int, seed int64) ([]float64, float64, error) {
	opt.SetDefaults()
	if err := opt.Validate(); err != nil {
		return nil, 0, err
	}
	if phase != "build" && phase != "probe" {
		return nil, 0, fmt.Errorf("core: unknown Monte Carlo phase %q", phase)
	}
	prof := runPilot(r, s, opt)
	sp, items := prof.build, r.Len()
	if phase == "probe" {
		sp, items = prof.probe, s.Len()
	}
	env, _ := staticEnv(opt, r.Len())
	model := &cost.Model{CPU: opt.CPU, GPU: opt.GPU, Env: env.envFor}

	samples := model.MonteCarlo(sp, items, runs, seed)
	out := make([]float64, len(samples))
	for i, smp := range samples {
		out[i] = smp.NS
	}
	ours := model.OptimizePLRefinedInto(sp, items, opt.Delta, make(sched.Ratios, len(sp.Steps)))
	return out, ours, nil
}
