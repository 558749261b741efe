package core

import (
	"slices"

	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/device"
	"apujoin/internal/mem"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// chunkBytes is the memory footprint of one open partition chunk, used to
// size the partition-phase cache working set.
const chunkBytes = int64((1 + 2*radix.ChunkTuples) * 4)

// partitionSide runs every radix pass of the build (r) or probe (s) side
// at the ratios chosen for it, accumulating the passes' timing into res,
// and leaves the side's keys reordered by partition with its offsets on the
// runner. The segmented table takes a tuple's partition from its hash
// (htab.Table.B1Seg), so no partition index is kept.
func (rn *runner) partitionSide(res *Result, exec *sched.Exec, passes []choice, build bool) error {
	plan := rn.geo.plan
	in := rn.s
	if build {
		in = rn.r
	}
	cur, offs, err := rn.partitionRel(res, exec, passes, plan, in, build)
	if err != nil {
		return err
	}
	if plan.Passes() != 1 {
		// A later pass's boundaries cover only its own fan-out.
		alloc.PutWords(offs)
		offs = radix.FinalOffsetsShifted(cur, plan, rn.opt.hashShift)
	}
	if build {
		rn.r, rn.offsetsR = cur, offs
	} else {
		rn.s, rn.offsetsS = cur, offs
	}
	return nil
}

// partitionRel runs every pass of plan over in and returns the partitioned
// keys, with the last pass's partition offsets (a recycler slab) — the
// final boundaries when that pass was the only one. Passes never write
// their input, so the first one reads the caller's relation in place;
// passes ping-pong between two recycler key columns of the run's own (the
// second exists only if a second pass does), never into the
// catalog-resident input. The column
// holding the result is held for the run; the other goes back at once, so
// S's passes reuse R's. first marks the build relation, whose first pass records the ratios.
func (rn *runner) partitionRel(res *Result, exec *sched.Exec, passes []choice, plan radix.Plan, in rel.Relation, first bool) (rel.Relation, []int32, error) {
	n := in.Len()
	cur := in
	var offs []int32
	var bufs [2][]int32

	shift := rn.opt.hashShift
	for pi, bits := range plan.BitsPerPass {
		buf := &bufs[pi%2]
		if *buf == nil {
			*buf = alloc.GetWords(n) // the pass's Gather writes all n keys
		}
		out := rel.Relation{Keys: *buf}
		alloc.PutWords(offs) // the previous pass's
		var err error
		if offs, err = rn.partitionPass(res, exec, cur, out, shift, bits, passes[pi].ratios, first && pi == 0); err != nil {
			alloc.PutWords(bufs[0])
			alloc.PutWords(bufs[1])
			return rel.Relation{}, nil, err
		}
		cur = out
		shift += bits
	}
	if passes := plan.Passes(); passes > 0 {
		alloc.PutWords(bufs[passes%2]) // the one not holding the result (none after a single pass)
		rn.hold(cur.Keys)
	}
	return cur, offs, nil
}

// choosePasses chooses the ratios of every radix pass over n tuples, each
// under its own pass's open-partition working set, as the pass will run,
// and adds their estimates to res. The choices go to the runner's buffer
// side (0: r, 1: s), valid until the runner is released. s's ratio vectors
// only run its passes, so they are the runner's too; r's are part of the
// build side's key and of the Result.
func (rn *runner) choosePasses(res *Result, model *cost.Model, prof cost.SeriesProfile, n, side int) []choice {
	np := rn.geo.plan.Passes()
	passes := slices.Grow(rn.passBuf[side][:0], np)[:np]
	rn.passBuf[side] = passes
	if side == 1 {
		rn.sRatios = slices.Grow(rn.sRatios[:0], np*passSteps)[:np*passSteps]
	}
	for pi, bits := range rn.geo.plan.BitsPerPass {
		rn.env.partitionStreams = int64(1<<bits) * chunkBytes
		var into sched.Ratios // nil: a vector of the pass's own
		if side == 1 {
			into = rn.sRatios[pi*passSteps : (pi+1)*passSteps : (pi+1)*passSteps]
		}
		passes[pi] = rn.choose(model, prof, n, passSteps, rn.opt.FixedPartition, into)
		res.EstimatedNS += passes[pi].est
		res.EstPartitionNS += passes[pi].est
	}
	return passes
}

// partitionPass runs one radix pass over cur at ratios (nil under
// BasicUnit), leaving its partitions' keys in out, and returns their
// offsets. n3 only charges the chunk chains — on a pool as the ownership
// shards, single-stream (BasicUnit's chunk-by-chunk n1→n2→n3) in request
// order, both on an arena that only counts — and Gather moves the keys into
// out. The pass's partition numbers live exactly as long as the pass.
func (rn *runner) partitionPass(res *Result, exec *sched.Exec, cur, out rel.Relation, shift, bits uint, ratios sched.Ratios, record bool) ([]int32, error) {
	opt := rn.opt
	n := cur.Len()
	rn.pass.Init(cur, opt.Alloc, shift, bits)
	defer rn.pass.Release()
	rn.passPool = exec.Pool
	rn.env.partitionStreams = int64(1<<bits) * chunkBytes
	ns, ratios, err := rn.runPhase(res, exec, rn.passSeries(n), ratios, "partition")
	if err != nil {
		return nil, err
	}
	res.PartitionNS += ns
	if record {
		if opt.Scheme == BasicUnit {
			res.BasicUnitShares = append(res.BasicUnitShares, ratios[0])
		}
		res.Ratios.Partition = append(res.Ratios.Partition, ratios)
	}
	if opt.Arch == Discrete && opt.Scheme != BasicUnit {
		pcie := mem.NewPCIe()
		gpuShare := 1 - avgRatio(ratios)
		bytes := int64(gpuShare * float64(n) * 8)
		res.TransferNS += pcie.TransferNS(bytes) * 2 // in + partitions back
	}

	// Link the partition chunks into contiguous form for the next pass /
	// the join ("we link all the intermediate partitions together").
	offs, ga := rn.pass.Gather(exec.Pool, out)
	res.PartitionNS += rn.cpu.TimeNS(ga, rn.env.envFor(sched.N3, rn.cpu))
	return offs, nil
}

// passSeries returns the running radix pass's n1..n3 series over n tuples.
// The pooled kernels run on an executor with a pool, where n2's After hook
// lays out the partitions the pooled n3 and Gather read (partitionPass);
// without one the series is single-stream and the caller lays out before
// it gathers.
func (rn *runner) passSeries(n int) sched.Series {
	return sched.Series{Name: "partition", Items: n, Steps: rn.passKernels}
}

func (rn *runner) makePassSteps() []sched.Step {
	n1 := func(d *device.Device, lo, hi int) device.Acct { return rn.pass.N1(d, lo, hi) }
	n2 := func(d *device.Device, lo, hi int) device.Acct { return rn.pass.N2(d, lo, hi) }
	return []sched.Step{
		{ID: sched.N1, OutBytesPerItem: 4, Kernel: n1, ParKernel: rn.ranged(n1)},
		{
			ID: sched.N2, OutBytesPerItem: 4, Kernel: n2, ParKernel: rn.ranged(n2),
			After: func() {
				if rn.passPool != nil {
					rn.pass.Layout(rn.passPool)
				}
			},
		},
		{
			ID:     sched.N3,
			Kernel: func(d *device.Device, lo, hi int) device.Acct { return rn.pass.N3(d, lo, hi) },
			ParKernel: func(d *device.Device, lo, hi int, p *sched.Pool) device.Acct {
				var shards [sched.DefaultShards]device.Acct
				return sched.MergeAccts(rn.pass.N3Shards(lo, hi, shards[:]))
			},
		},
	}
}

// coarsePairKernel joins whole partition pairs [lo,hi): the coarse-grained
// step definition of Sec. 3.3, where one work item performs the complete
// SHJ of a partition pair with its own private hash table.
func (rn *runner) coarsePairKernel(d *device.Device, lo, hi int) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	for p := lo; p < hi; p++ {
		rLo, rHi := int(rn.offsetsR[p]), int(rn.offsetsR[p+1])
		sLo, sHi := int(rn.offsetsS[p]), int(rn.offsetsS[p+1])
		work := int32(rHi - rLo + sHi - sLo + 1)

		if rHi > rLo {
			nb := rHi - rLo
			if nb < 2 {
				nb = 2
			}
			t := &rn.tables[0] // no shared table: the pairs take turns in it
			t.Init(nb, rHi-rLo, 0, rn.arena)
			for _, key := range rn.r.Keys[rLo:rHi] {
				a.Add(t.InsertOne(key))
			}
			for i := sLo; i < sHi; i++ {
				a.Add(t.ProbeOne(rn.s.Keys[i], &rn.out))
			}
			t.Release()
		}
		a.Items++
		div.Item(work)
	}
	div.Flush(&a)
	return a
}

// coarseJoin runs the PHJ-PL' join-the-pairs step after partitioning.
// The scheduling profile for the single coarse step is synthesized from the
// pilot's per-tuple build and probe profiles scaled by the average pair
// population, so the ratio choice needs no side-effecting probe run.
func (rn *runner) coarseJoin(res *Result, model *cost.Model) error {
	// No shared table is built, so tableBytes is still staticEnv's estimate.
	rn.arena = &rn.arenas[0]
	rn.arena.Reset(rn.opt.Alloc)
	parts := rn.geo.parts
	rn.env.coarsePairBytes = (rn.r.Bytes() + rn.s.Bytes() + rn.env.tableBytes) / int64(parts)

	var step [1]cost.StepProfile
	prof := coarseProfile(&step, res.BuildProfile, res.ProbeProfile,
		float64(rn.r.Len())/float64(parts), float64(rn.s.Len())/float64(parts))

	series := sched.Series{
		Name:  "pairjoin",
		Items: parts,
		Steps: []sched.Step{{ID: sched.P3, Kernel: rn.coarsePairKernel}},
	}
	exec := rn.exec
	exec.Pool, exec.PCIe = nil, nil

	ratio, est := model.OptimizeDD(prof, parts, rn.opt.Delta)
	ratios := sched.Uniform(ratio, 1)
	cres, err := exec.Run(series, ratios)
	if err != nil {
		return err
	}
	// The pair joins cover both build and probe; attribute the time by the
	// R/S tuple share for breakdown purposes.
	total := cres.TotalNS
	fr := float64(rn.r.Len()) / float64(rn.r.Len()+rn.s.Len())
	res.BuildNS = total * fr
	res.ProbeNS = total * (1 - fr)
	res.EstimatedNS += est
	res.Ratios.Build = ratios
	res.Ratios.Probe = ratios
	cs := rn.env.missStats(cres, rn.cpu, rn.gpu)
	res.Cache.Accesses += cs.Accesses
	res.Cache.Misses += cs.Misses
	return nil
}
