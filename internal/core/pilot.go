package core

import (
	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/device"
	"apujoin/internal/htab"
	"apujoin/internal/mem"
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
	prof, _ := runPilotKept(r, s, opt, nil, false)
	return prof
}

// Pilot is the build half of a pilot over r's first n tuples: the SHJ table
// built over them, sealed for probing (htab.Table.Seal), its resident size
// before sealing, the build profile and, under a PHJ key, the
// partition-pass profile. All of it reads r's sample alone, so a registered
// build side keeps its pilot and a cold plan over it runs only the probe
// half (BuildPlanKept), with the profiles a whole pilot takes, bit for bit.
// Plans only read a pilot; whoever holds it releases it.
type Pilot struct {
	key pilotKey

	table            *htab.Table
	tableBytes       int64 // the probe's working set
	build, partition cost.SeriesProfile
}

// pilotKey is everything the build half reads besides r's sample: its size
// and the options its runner, table and partition pass read. A pilot serves
// only plans under the same key.
type pilotKey struct {
	n                   int
	partition, grouping bool // partition: the pass profile is taken (PHJ)
	groups              int
	alloc               alloc.Config
	hashShift           uint
	cpu, gpu            device.Profile
	cache               mem.CacheModel
}

// Bytes is what the pilot keeps resident: its sealed table's counts and
// flat layout.
func (p *Pilot) Bytes() int64 { return p.table.Bytes() }

// Release hands the table's slabs back to the recycler.
func (p *Pilot) Release() { p.table.Release() }

// pilotHalf and passHalf split every step of a pilot's build and probe
// series and of its radix pass half and half between the devices. Runs
// only read ratios, so every pilot shares them.
var pilotHalf, passHalf = sched.Uniform(0.5, buildSteps), sched.Uniform(0.5, passSteps)

// runPilotKept is runPilot over a build side whose pilot the caller may
// keep, as RunKept is RunCtx: it probes kept when kept was built under the
// pilot's key; with keep and no kept pilot it returns its own, sealed before
// its probe, which the caller owns from then on; under another key than
// kept's it runs whole, as runPilot does, and returns nil.
func runPilotKept(r, s rel.Relation, opt Options, kept *Pilot, keep bool) (profiles, *Pilot) {
	n := min(opt.PilotItems, r.Len(), s.Len())
	if n <= 0 {
		return profiles{}, nil
	}
	key := pilotKey{n: n, partition: opt.Algo == PHJ, grouping: opt.Grouping, groups: opt.Groups,
		alloc: opt.Alloc, hashShift: opt.hashShift, cpu: opt.CPU, gpu: opt.GPU, cache: opt.Cache}
	opt.Algo, opt.SeparateTables = SHJ, false
	pr, hit := r.Slice(0, n), kept != nil && kept.key == key
	if hit {
		pr = rel.Relation{}
	}
	rn := newRunner(pr, s.Slice(0, n), opt)
	defer rn.release()
	exec, half := &rn.exec, pilotHalf
	if hit {
		return rn.pilotProbe(kept, exec, half), kept
	}
	own := Pilot{key: key}
	rn.pilotBuild(&own, exec, half)
	if keep && kept == nil {
		fresh := new(Pilot)
		*fresh = own
		fresh.table = own.table.Moved()
		fresh.table.Seal(nil)
		return rn.pilotProbe(fresh, exec, half), fresh
	}
	defer own.Release()
	return rn.pilotProbe(&own, exec, half), nil
}

// pilotBuild runs the build half over rn.r into p, single-stream: the build
// series under the ratios half, the table's resident size — the probe's
// working set — and, under a PHJ key, one radix pass over the sample. The
// table moves to p.
func (rn *runner) pilotBuild(p *Pilot, exec *sched.Exec, half sched.Ratios) {
	n := rn.r.Len()
	rn.makeTables()
	if bres, err := exec.Run(rn.buildSeries(), half); err == nil {
		p.build = cost.ProfileResult(bres, n)
	}
	p.tableBytes = rn.table.BytesResident()
	p.table, rn.table = rn.table, nil
	if p.key.partition {
		bits := uint(radix.MaxBitsPerPass)
		rn.pass.Init(rn.r, rn.opt.Alloc, 0, bits)
		defer rn.pass.Release()
		rn.env.partitionStreams = int64(1<<bits) * chunkBytes
		if nres, err := exec.Run(rn.passSeries(n), passHalf); err == nil {
			p.partition = cost.ProfileResult(nres, n)
		}
		rn.env.partitionStreams = 0 // the probe half may run next on this runner
	}
}

// pilotProbe runs the probe half, rn.s against p's table, single-stream
// under the ratios half, and returns p's profiles with the probe's.
func (rn *runner) pilotProbe(p *Pilot, exec *sched.Exec, half sched.Ratios) profiles {
	rn.env.tableBytes, rn.probed = p.tableBytes, p.table
	out := profiles{partition: p.partition, build: p.build}
	if pres, err := exec.Run(rn.probeSeries(), half); err == nil {
		out.probe = cost.ProfileResult(pres, rn.s.Len())
	}
	return out
}

// coarseProfile synthesizes the single-step profile of the PHJ-PL' pair
// join from per-tuple build and probe profiles, its step in *step: one
// pair's work is the sum of its tuples' per-step work.
func coarseProfile(step *[1]cost.StepProfile, build, probe cost.SeriesProfile, rPerPair, sPerPair float64) cost.SeriesProfile {
	p := &step[0]
	*p = cost.StepProfile{ID: sched.P3}
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
	return cost.SeriesProfile{Name: "pairjoin", Steps: step[:]}
}
