package core

import (
	"fmt"

	"apujoin/internal/cost"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// Plan is a precomputed execution plan: the algorithm and co-processing
// scheme the planner chose, the pilot-calibrated step profiles, and the
// optimized workload ratios. Injecting one via Options.Plan makes Run skip
// the pilot profiling run (the plan's profiles stand in for it) and the
// per-phase ratio searches (the plan's ratios are applied as fixed
// overrides), which removes plan-time cost from repeated queries of the
// same workload shape — the amortization internal/plan caches plans for.
//
// A Plan is immutable after BuildPlan returns and safe to share across any
// number of concurrent runs. The same plan injected into the same query
// always yields bit-identical results: every field consumed by Run is a
// deterministic input, never mutated.
type Plan struct {
	Algo   Algo
	Scheme Scheme
	Arch   Arch

	// Profiles from the planning pilot, reused by every run under this
	// plan in place of its own pilot (the cached "AMD APP Profiler" output
	// of the paper's Sec. 4.2).
	Partition cost.SeriesProfile
	Build     cost.SeriesProfile
	Probe     cost.SeriesProfile

	// Optimized workload ratios, applied by Run through the Fixed*
	// override path. PartitionRatios applies to every radix pass (PHJ
	// only); CoarsePL leaves Build/ProbeRatios nil — its single pair-join
	// ratio is recomputed from the plan's profiles at run time, which is
	// deterministic and cheap (one 1-D grid search).
	PartitionRatios sched.Ratios
	BuildRatios     sched.Ratios
	ProbeRatios     sched.Ratios

	// PredictedNS is the cost model's end-to-end estimate for this plan;
	// the per-phase fields split it. The service layer reports
	// predicted-vs-simulated error from it.
	PredictedNS          float64
	PredictedPartitionNS float64
	PredictedBuildNS     float64
	PredictedProbeNS     float64
}

// String renders the plan headline, e.g. "PHJ-PL (predicted 12.3 ms)".
func (p *Plan) String() string {
	return fmt.Sprintf("%s-%s (predicted %.3f ms)", p.Algo, p.Scheme, p.PredictedNS/1e6)
}

// applyPlan folds an injected plan into the options: algorithm, scheme and
// the precomputed ratios as fixed overrides (caller-set Fixed* fields win,
// matching the cost-model-evaluation experiments that sweep them).
func (o *Options) applyPlan() {
	p := o.Plan
	o.Algo = p.Algo
	o.Scheme = p.Scheme
	o.Arch = p.Arch
	if len(p.PartitionRatios) > 0 && o.FixedPartition == nil {
		o.FixedPartition = p.PartitionRatios
	}
	if len(p.BuildRatios) > 0 && o.FixedBuild == nil {
		o.FixedBuild = p.BuildRatios
	}
	if len(p.ProbeRatios) > 0 && o.FixedProbe == nil {
		o.FixedProbe = p.ProbeRatios
	}
}

// autoSchemes lists the schemes the planner considers for one algorithm:
// every scheme the cost model covers and the configuration permits.
// BasicUnit is excluded — its chunk scheduling is dynamic and the model
// deliberately does not predict it — and PL requires the shared hash table
// (infeasible with separate tables / on the discrete architecture).
func autoSchemes(algo Algo, opt Options) []Scheme {
	schemes := []Scheme{CPUOnly, GPUOnly, OL, DD}
	if !opt.SeparateTables {
		schemes = append(schemes, PL)
	}
	if algo == PHJ {
		schemes = append(schemes, CoarsePL)
	}
	return schemes
}

// BuildPlan evaluates both join algorithms under every applicable
// co-processing scheme for the given workload and returns the plan the
// cost model predicts cheapest. One pilot profiling run (the expensive
// part) serves every candidate: the build and probe profiles are
// algorithm-independent by construction of runPilot, and the partition
// profile only matters to the PHJ candidates. Candidates are evaluated in
// a fixed order with strict improvement, so ties resolve deterministically
// and the same workload always yields the same plan.
func BuildPlan(r, s rel.Relation, opt Options) (*Plan, error) {
	pl, _, err := buildPlan(r, s, opt, nil, false)
	return pl, err
}

// BuildPlanKept is BuildPlan over a build side whose pilot the caller may
// keep, as RunKept is RunCtx: the plan's pilot probes kept when kept was
// built under its key (Pilot) and builds its own otherwise. It returns the
// pilot the probe read: kept itself on a hit; when kept is nil, a fresh
// pilot, sealed, which the caller owns from then on and must Release; nil
// under another key than kept's, whose pilot runs whole and is freed. The
// plan is BuildPlan's either way. r is the caller's registered slice,
// validated when it was loaded, and is not validated again; s is.
func BuildPlanKept(r, s rel.Relation, opt Options, kept *Pilot) (*Plan, *Pilot, error) {
	return buildPlan(r, s, opt, kept, true)
}

// buildPlan is BuildPlanKept; keep says whether the caller takes a fresh
// pilot.
func buildPlan(r, s rel.Relation, opt Options, kept *Pilot, keep bool) (*Plan, *Pilot, error) {
	opt.Plan = nil
	opt.SetDefaults()
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if r.Len() == 0 || s.Len() == 0 {
		return nil, nil, fmt.Errorf("core: cannot plan an empty relation (|R|=%d, |S|=%d)", r.Len(), s.Len())
	}

	// The pilot is run once with Algo PHJ so the partition profile is
	// produced too; its build/probe profiles are identical to an SHJ
	// pilot's (runPilot profiles build and probe on an unpartitioned
	// sample regardless of the algorithm).
	popt := opt
	popt.Algo = PHJ
	prof, pilot := runPilotKept(r, s, popt, kept, keep)

	// One model prices every candidate, each under its own environment, so
	// the searches' tables are grown once per plan.
	model := &cost.Model{CPU: opt.CPU, GPU: opt.GPU}
	var best *Plan
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range autoSchemes(algo, opt) {
			cand := planCandidate(model, r, s, opt, algo, scheme, prof)
			if best == nil || cand.PredictedNS < best.PredictedNS {
				best = cand
			}
		}
	}
	return best, pilot, nil
}

// The planner reaches the ratio searches through these two variables, so
// that TestBuildPlanEqualsReferenceSearch can price the same candidates with
// the per-leaf reference searches; nothing else assigns them. Run calls
// schemeRatios and OptimizeDD directly: an indirect call would move its
// Model from the stack to the heap on every join.
var (
	planRatios = schemeRatios
	planDD     = (*cost.Model).OptimizeDD
)

// planCandidate prices one (algorithm, scheme) alternative under the
// memory environment the run will start in — staticEnv's radix fan-out and
// estimated hash-table residency, the partition-chunk working set of each
// pass — and runs the same per-scheme ratio optimizers chooseRatios would,
// yielding the ratios the plan will fix and the model's end-to-end
// estimate. It points model at the candidate's environment.
func planCandidate(model *cost.Model, r, s rel.Relation, opt Options, algo Algo, scheme Scheme, prof profiles) *Plan {
	opt.Algo, opt.Scheme = algo, scheme
	env, g := staticEnv(opt, r.Len())
	model.Env = env.envFor
	pl := &Plan{
		Algo: algo, Scheme: scheme, Arch: opt.Arch,
		Partition: prof.partition, Build: prof.build, Probe: prof.probe,
	}

	if algo == PHJ {
		// Ratios are chosen once, on the first pass's fan-out over |R|
		// items, exactly as a FixedPartition override applies one ratio
		// vector to every pass; the prediction then prices every pass of
		// both relations at those ratios under its own chunk working set.
		env.partitionStreams = int64(1<<g.plan.BitsPerPass[0]) * chunkBytes
		steps := len(prof.partition.Steps)
		ratios, _ := planRatios(model, opt, prof.partition, r.Len(), steps)
		pl.PartitionRatios = ratios
		for _, bits := range g.plan.BitsPerPass {
			env.partitionStreams = int64(1<<bits) * chunkBytes
			pl.PredictedPartitionNS += model.EstimateNS(prof.partition, r.Len(), ratios)
			pl.PredictedPartitionNS += model.EstimateNS(prof.partition, s.Len(), ratios)
		}
		env.partitionStreams = 0
	}

	if scheme == CoarsePL {
		env.coarsePairBytes = (r.Bytes() + s.Bytes() + env.tableBytes) / int64(g.parts)
		cp := coarseProfile(prof.build, prof.probe,
			float64(r.Len())/float64(g.parts), float64(s.Len())/float64(g.parts))
		_, est := planDD(model, cp, g.parts, opt.Delta)
		// The pair joins cover build and probe; attribute by tuple share
		// as coarseJoin does.
		fr := float64(r.Len()) / float64(r.Len()+s.Len())
		pl.PredictedBuildNS = est * fr
		pl.PredictedProbeNS = est * (1 - fr)
	} else {
		pl.BuildRatios, pl.PredictedBuildNS =
			planRatios(model, opt, prof.build, r.Len(), len(prof.build.Steps))
		pl.ProbeRatios, pl.PredictedProbeNS =
			planRatios(model, opt, prof.probe, s.Len(), len(prof.probe.Steps))
	}
	pl.PredictedNS = pl.PredictedPartitionNS + pl.PredictedBuildNS + pl.PredictedProbeNS
	return pl
}
