package core

import (
	"context"
	"errors"
	"fmt"

	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/mem"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// ErrExceedsZeroCopy reports that the join's data footprint does not fit
// the zero-copy buffer; callers run RunExternal instead (paper appendix,
// Fig. 19).
var ErrExceedsZeroCopy = errors.New("core: data exceeds zero-copy buffer; use RunExternal")

// Run executes one hash join under the configured algorithm, scheme and
// architecture, returning the exact match count and the simulated timing.
func Run(r, s rel.Relation, opt Options) (*Result, error) {
	return RunCtx(context.Background(), r, s, opt)
}

// RunCtx is Run with cancellation: a cancelled context aborts the join at
// the next step boundary with the context's error. Run is re-entrant — it
// keeps no package-level state a result can depend on: every run owns its
// arenas and intermediate arrays for as long as it runs (they are slabs of
// the process-wide recycler in internal/alloc, taken with arbitrary
// contents and handed back on every return path), and the worker pool is
// either injected (Options.Pool, shared by the multi-query service layer)
// or transient to the call — so any number of runs may execute
// concurrently, each producing bit-identical results to the same run
// executed alone.
func RunCtx(ctx context.Context, r, s rel.Relation, opt Options) (*Result, error) {
	res, _, err := runCtx(ctx, r, s, opt, nil, false)
	return res, err
}

// RunKept is RunCtx over a build side whose record the caller may keep. The
// run probes kept's table when kept was built under this run's
// configuration and the ratios it chooses for r's passes and the build,
// and builds its own otherwise. It returns the record the probe read:
// kept itself on a hit; when kept is nil, a fresh record, sealed for
// probing (htab.Table.Seal) before the run's own probe, which the caller
// owns from then on and must Release. It returns nil under another key than
// kept's — the run builds, probes and frees its table as RunCtx does, since
// the caller keeps one record — and for PHJ-PL', which builds no shared
// table. A failed run returns no record. The run only reads kept, which
// stays the caller's. r is the caller's registered slice, validated when it
// was loaded, and is not validated again; s is.
func RunKept(ctx context.Context, r, s rel.Relation, opt Options, kept *BuildRecord) (*Result, *BuildRecord, error) {
	return runCtx(ctx, r, s, opt, kept, true)
}

// runCtx is RunKept; keep says whether the caller takes a fresh record.
func runCtx(ctx context.Context, r, s rel.Relation, opt Options, kept *BuildRecord, keep bool) (_ *Result, _ *BuildRecord, err error) {
	if opt.Plan != nil {
		// An injected plan decides algorithm, scheme and ratios; the
		// pilot below is skipped in favour of the plan's profiles.
		opt.applyPlan()
	}
	opt.SetDefaults()
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if opt.SeparateTables && opt.Scheme == PL {
		// With one table per device, a tuple must stay on one device for
		// the whole phase; per-step ratios would scatter its steps across
		// both tables. The paper accordingly evaluates separate tables
		// under DD, and notes PL is infeasible on the discrete
		// architecture.
		return nil, nil, fmt.Errorf("core: PL requires a shared hash table (infeasible with separate tables / on the discrete architecture)")
	}

	// Zero-copy footprint: both relations plus (approximately data-sized)
	// join structures must fit the 512 MB buffer, which puts the boundary
	// between the paper's 16M and 32M configurations.
	dataBytes := r.Bytes() + s.Bytes()
	foot := dataBytes * 2
	if foot > opt.ZeroCopy.Capacity {
		return nil, nil, ErrExceedsZeroCopy
	}
	if err := opt.ZeroCopy.Alloc(foot); err != nil {
		return nil, nil, ErrExceedsZeroCopy
	}
	defer opt.ZeroCopy.Free(foot)

	rn := newRunner(r, s, opt)
	defer rn.release()
	rn.pool = opt.Pool
	if rn.pool == nil {
		rn.pool = sched.NewPool(opt.Workers)
		defer rn.pool.Close()
	}
	res := &Result{Algo: opt.Algo, Scheme: opt.Scheme, Arch: opt.Arch, ZeroCopyBytes: foot}

	exec := &sched.Exec{CPU: rn.cpu, GPU: rn.gpu, Env: rn.env.envFor, Pool: rn.pool, Ctx: ctx}
	var pcie mem.PCIe
	if opt.Arch == Discrete {
		pcie = mem.NewPCIe()
		exec.PCIe = &pcie
	}

	// Pilot profiling run (the "profiler" feeding the cost model) — or the
	// injected plan's cached profiles, which skip the pilot entirely.
	var prof profiles
	if opt.Plan != nil {
		prof = profiles{
			partition: opt.Plan.Partition,
			build:     opt.Plan.Build,
			probe:     opt.Plan.Probe,
		}
	} else {
		prof = runPilot(r, s, opt)
	}
	res.BuildProfile = prof.build
	res.ProbeProfile = prof.probe
	res.PartitionProfile = prof.partition
	model := &cost.Model{CPU: opt.CPU, GPU: opt.GPU, Env: rn.env.envFor}

	// Every ratio before the probe's is chosen up front, in the order the
	// phases run: the pilot that prices them sees s, so they are chosen on
	// every run, and the build side's are part of its record's key.
	rPasses := rn.choosePasses(res, model, prof.partition, r.Len())
	sPasses := rn.choosePasses(res, model, prof.partition, s.Len())
	var build choice
	steps := passSteps * (len(rPasses) + len(sPasses))
	if opt.Scheme != CoarsePL {
		build = rn.choose(model, prof.build, r.Len(), buildSteps, opt.FixedBuild)
		steps += buildSteps + probeSteps
	}
	if opt.Scheme != BasicUnit {
		// One allocation for every step the run records (BasicUnit records
		// none).
		res.Steps = make([]StepTiming, 0, steps)
	}

	// The build side: r's passes and the build phase, or the record kept
	// for them. Either way its terms fold in where they ran before the
	// split — r's partition terms, s's passes, then the build terms — so
	// every float sum keeps its order.
	if opt.Scheme == CoarsePL {
		kept, keep = nil, false // PHJ-PL' builds no shared table to keep
	}
	key := buildKey{configOf(&opt), rPasses, build.ratios}
	out, rec := kept, kept
	if kept == nil || !kept.key.equal(&key) {
		// The run's own record stays on its stack: a caller that keeps
		// records and holds none gets a copy, sealed on the pool before
		// the probe and released here if the run fails.
		own := BuildRecord{key: key}
		if err := rn.buildSide(&own, exec); err != nil {
			return nil, nil, err
		}
		out, rec = nil, &own
		if keep && kept == nil {
			fresh := new(BuildRecord)
			*fresh, out, rec = own, fresh, fresh
			fresh.table.Seal(rn.pool)
			defer func() {
				if err != nil {
					fresh.Release()
				}
			}()
		} else {
			defer own.Release()
		}
	}
	fold(res, &rec.part)
	if opt.Algo == PHJ {
		if err := rn.partitionSide(res, exec, sPasses, false); err != nil {
			return nil, nil, err
		}
	}

	if opt.Scheme == CoarsePL {
		if err := rn.coarseJoin(ctx, res, model); err != nil {
			return nil, nil, err
		}
		return rn.finish(res, rec.alloc), nil, nil
	}

	res.EstBuildNS = build.est
	res.EstimatedNS += build.est
	fold(res, &rec.terms)
	res.TransferNS += rec.pcie
	// The table is fully built; the probe's working set is its actual
	// resident size.
	rn.env.tableBytes = rec.tableBytes
	rn.probed = rec.table

	// Probe phase.
	if opt.Grouping {
		exec.Pool = nil
	}
	probe := rn.choose(model, prof.probe, s.Len(), probeSteps, opt.FixedProbe)
	if res.ProbeNS, res.Ratios.Probe, err = rn.runPhase(res, exec, rn.probeSeries(), probe.ratios, "probe"); err != nil {
		return nil, nil, err
	}
	res.EstProbeNS = probe.est
	res.EstimatedNS += probe.est
	if opt.Scheme == BasicUnit {
		res.BasicUnitShares = append(res.BasicUnitShares, res.Ratios.Probe[0])
	}
	if opt.Arch == Discrete {
		gpuShare := 1 - avgRatio(res.Ratios.Probe)
		in := pcie.TransferNS(int64(gpuShare * float64(s.Bytes())))
		back := pcie.TransferNS(int64(gpuShare * float64(rn.out.Pairs) * 8))
		res.TransferNS += in + back
	}
	return rn.finish(res, rec.alloc), out, nil
}

// finish completes res: the match count, the total, the allocator totals —
// the build side's (built), then those of the arenas the run still holds —
// and the latch overhead the paper backs out of measured−estimated (Sec.
// 5.4), over the phases the model covers.
func (rn *runner) finish(res *Result, built alloc.Stats) *Result {
	res.Matches = rn.out.Pairs
	res.TotalNS = res.Breakdown.TotalNS()
	res.AllocStats = built
	if rn.arena != nil {
		res.AllocStats.Add(rn.arena.Stats())
	}
	res.AllocStats.Add(rn.outArena.Stats())
	res.AllocStats.Add(rn.outExtra)
	if d := res.PartitionNS + res.BuildNS + res.ProbeNS - res.EstimatedNS; res.EstimatedNS > 0 && d > 0 {
		res.LockOverheadNS = d
	}
	return res
}

// runPhase runs one phase's series under the scheme — BasicUnit's dynamic
// chunking, or exec.Run at the ratios chosen for it — and folds the phase's
// transfer time, per-step timings and modeled cache misses into res. It
// returns the phase's device time (its transfer excluded) and the ratios
// applied: BasicUnit's CPU share on every step.
func (rn *runner) runPhase(res *Result, exec *sched.Exec, series sched.Series, ratios sched.Ratios, phase string) (float64, sched.Ratios, error) {
	if rn.opt.Scheme == BasicUnit {
		bu, err := exec.RunBasicUnit(series, rn.opt.CPUChunk, rn.opt.GPUChunk)
		if err != nil {
			return 0, nil, err
		}
		return bu.TotalNS, sched.Uniform(bu.CPUShare, len(series.Steps)), nil
	}
	sr, err := exec.Run(series, ratios)
	if err != nil {
		return 0, nil, err
	}
	res.TransferNS += sr.TransferNS
	recordSteps(res, phase, sr, series.Items)
	cs := rn.env.missStats(sr, rn.cpu, rn.gpu)
	res.Cache.Accesses += cs.Accesses
	res.Cache.Misses += cs.Misses
	return sr.TotalNS - sr.TransferNS, ratios, nil
}

// choose picks the workload ratios for one series according to the scheme
// (or the caller's fixed override), with the model's estimate; BasicUnit
// chooses none.
func (rn *runner) choose(model *cost.Model, prof cost.SeriesProfile, items, steps int, fixed sched.Ratios) choice {
	switch {
	case rn.opt.Scheme == BasicUnit:
		return choice{}
	case fixed == nil:
		ratios, est := schemeRatios(model, rn.opt, prof, items, steps)
		return choice{ratios, est}
	case len(fixed) == 1 && steps > 1:
		fixed = sched.Uniform(fixed[0], steps)
	}
	return choice{fixed, model.EstimateNS(prof, items, fixed)}
}

// schemeRatios runs the per-scheme ratio optimizer for one series,
// returning the chosen ratios with the model's estimate. It is shared by
// the run-time ratio choice and the ahead-of-time planner (BuildPlan), so
// a plan's fixed ratios are exactly what an unplanned run would search for
// under the same profiles and environment.
func schemeRatios(model *cost.Model, opt Options, prof cost.SeriesProfile, items, steps int) (sched.Ratios, float64) {
	switch opt.Scheme {
	case CPUOnly:
		r := sched.Uniform(1, steps)
		return r, model.EstimateNS(prof, items, r)
	case GPUOnly:
		r := sched.Uniform(0, steps)
		return r, model.EstimateNS(prof, items, r)
	case OL:
		if opt.SeparateTables {
			// Whole-phase offload keeps each tuple on one device/table.
			cpu := sched.Uniform(1, steps)
			gpu := sched.Uniform(0, steps)
			tc := model.EstimateNS(prof, items, cpu)
			tg := model.EstimateNS(prof, items, gpu)
			if tc < tg {
				return cpu, tc
			}
			return gpu, tg
		}
		return model.OptimizeOL(prof, items)
	case DD:
		r, est := model.OptimizeDD(prof, items, opt.Delta)
		return sched.Uniform(r, steps), est
	case PL, CoarsePL:
		if opt.FullGrid {
			return model.OptimizePL(prof, items, opt.Delta)
		}
		return model.OptimizePLRefined(prof, items, opt.Delta)
	default:
		r := sched.Uniform(0.5, steps)
		return r, model.EstimateNS(prof, items, r)
	}
}

// recordSteps appends the executed series' per-step timings to the result.
func recordSteps(res *Result, phase string, sr sched.Result, items int) {
	for _, st := range sr.Steps {
		res.Steps = append(res.Steps, StepTiming{
			Phase: phase, ID: st.ID, Items: items, Ratio: st.Ratio,
			CPUNS: st.CPUNS, GPUNS: st.GPUNS,
			DelayCPUNS: st.DelayCPUNS, DelayGPUNS: st.DelayGPUNS,
		})
	}
}

func avgRatio(rs sched.Ratios) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r
	}
	return t / float64(len(rs))
}
