package core

import (
	"apujoin/internal/cost"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// profiles carries the calibrated step unit costs the cost model consumes.
type profiles struct {
	partition cost.SeriesProfile
	build     cost.SeriesProfile
	probe     cost.SeriesProfile
}

// runPilot executes a small profiling join over a sample of the inputs and
// derives per-step unit costs — the role AMD CodeXL / APP Profiler plays in
// the paper's model instantiation (Sec. 4.2). The sample shares the data
// distribution, so workload-dependent steps (b3/p3 list lengths, p4 match
// fan-out) are captured as averages exactly as the paper folds "instructions
// per key search × the average number of keys" into the unit cost.
func runPilot(r, s rel.Relation, opt Options) profiles {
	n := opt.PilotItems
	if n > r.Len() {
		n = r.Len()
	}
	if n > s.Len() {
		n = s.Len()
	}
	if n == 0 {
		return profiles{}
	}
	pr := r.Slice(0, n)
	ps := s.Slice(0, n)

	popt := opt
	popt.Algo = SHJ
	popt.SeparateTables = false
	rn := newRunner(pr, ps, popt)
	defer rn.release()
	rn.makeTables()

	exec := &sched.Exec{CPU: rn.cpu, GPU: rn.gpu, Env: rn.env.envFor}
	half := sched.Uniform(0.5, 4)

	var out profiles
	if bres, err := exec.Run(rn.buildSeries(), half); err == nil {
		out.build = cost.ProfileResult(bres, n)
	}
	rn.env.tableBytes, rn.probed = rn.table.BytesResident(), rn.table
	if pres, err := exec.Run(rn.probeSeries(), half); err == nil {
		out.probe = cost.ProfileResult(pres, n)
	}

	// Partition-pass profile for PHJ variants: one pass over the sample.
	if opt.Algo == PHJ {
		bits := uint(radix.MaxBitsPerPass)
		pass := radix.NewPass(pr, opt.Alloc, 0, bits)
		defer pass.Release()
		rn.env.partitionStreams = int64(1<<bits) * chunkBytes
		if nres, err := exec.Run(passSeries(pass, n, exec.Pool), sched.Uniform(0.5, 3)); err == nil {
			out.partition = cost.ProfileResult(nres, n)
		}
	}
	return out
}

// coarseProfile synthesizes the single-step profile of the PHJ-PL' pair
// join from per-tuple build and probe profiles: one pair's work is the sum
// of its tuples' per-step work.
func coarseProfile(build, probe cost.SeriesProfile, rPerPair, sPerPair float64) cost.SeriesProfile {
	var p cost.StepProfile
	p.ID = sched.P3
	accum := func(sp cost.SeriesProfile, mult float64) {
		for _, st := range sp.Steps {
			p.InstrPerItem += float64(st.InstrPerItem * mult)
			p.SeqBytesPerItem += float64(st.SeqBytesPerItem * mult)
			for reg := range st.RandPerItem {
				p.RandPerItem[reg] += float64(st.RandPerItem[reg] * mult)
			}
		}
	}
	accum(build, rPerPair)
	accum(probe, sPerPair)
	return cost.SeriesProfile{Name: "pairjoin", Steps: []cost.StepProfile{p}}
}
