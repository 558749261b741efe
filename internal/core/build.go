package core

import (
	"slices"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/htab"
	"apujoin/internal/mem"
	"apujoin/internal/sched"
)

// choice is one series' ratios, chosen before it runs, with the model's
// estimate at them; BasicUnit chooses nothing (its shares come out of the
// run).
type choice struct {
	ratios sched.Ratios
	est    float64
}

// buildConfig is everything the build side reads besides r and the ratios
// applied to it: a record built under one config serves only runs under
// the same one.
type buildConfig struct {
	algo                       Algo
	scheme                     Scheme
	arch                       Arch
	separate, grouping         bool
	groups, cpuChunk, gpuChunk int
	alloc                      alloc.Config
	hashShift                  uint
	radixTargetBytes           int64
	cpu, gpu                   device.Profile
	cache                      mem.CacheModel
}

func configOf(opt *Options) buildConfig {
	return buildConfig{algo: opt.Algo, scheme: opt.Scheme, arch: opt.Arch, separate: opt.SeparateTables,
		grouping: opt.Grouping, groups: opt.Groups, cpuChunk: opt.CPUChunk, gpuChunk: opt.GPUChunk,
		alloc: opt.Alloc, hashShift: opt.hashShift, radixTargetBytes: opt.RadixTargetBytes,
		cpu: opt.CPU, gpu: opt.GPU, cache: opt.Cache}
}

// buildKey is what a record serves: the configuration and the ratios
// applied to r's passes and to the build.
type buildKey struct {
	cfg    buildConfig
	passes []choice
	build  sched.Ratios
}

func (k *buildKey) equal(o *buildKey) bool {
	return k.cfg == o.cfg && slices.Equal(k.build, o.build) &&
		slices.EqualFunc(k.passes, o.passes, func(a, b choice) bool { return slices.Equal(a.ratios, b.ratios) })
}

// BuildRecord is one executed build side: r's radix passes, the build
// phase, the merge of separate tables (or the swap to a GPU-built one) and
// the discrete build transfer. It holds the table the probe reads (sealed
// when a record is made to be kept, see RunKept), and every value
// those steps add to a Result, in the order they add
// it: part holds r's partition terms (folded into a Result before s's
// passes), terms the build terms (folded after them), then pcie, the
// discrete transfer that follows the build phase. A run folds a record the
// same way whether it just built it or was handed it (RunKept), so a warm
// run's Result is the cold run's, bit for bit. Runs only read a record;
// whoever holds it releases it once no run reads it.
type BuildRecord struct {
	key buildKey

	table *htab.Table

	part, terms Result
	pcie        float64
	tableBytes  int64 // the built table's resident size, the probe's working set
	alloc       alloc.Stats
}

// fold adds the partial result p to res term by term. Every field of res it
// touches is either still zero, so the sum is p's own, or receives a single
// addend here, exactly as the steps that produced p would have added it.
func fold(res, p *Result) {
	res.PartitionNS += p.PartitionNS
	res.BuildNS += p.BuildNS
	res.MergeNS += p.MergeNS
	res.TransferNS += p.TransferNS
	res.Steps = append(res.Steps, p.Steps...)
	res.Cache.Accesses += p.Cache.Accesses
	res.Cache.Misses += p.Cache.Misses
	res.Ratios.Partition = append(res.Ratios.Partition, p.Ratios.Partition...)
	if p.Ratios.Build != nil {
		res.Ratios.Build = p.Ratios.Build
	}
	res.BasicUnitShares = append(res.BasicUnitShares, p.BasicUnitShares...)
}

// Bytes is what the record keeps resident: the table's bucket headers and
// its key nodes, or, once sealed, the counts and the flat probe layout.
func (rec *BuildRecord) Bytes() int64 { return rec.table.Bytes() }

// Release hands the table's slabs back to the recycler.
func (rec *BuildRecord) Release() { rec.table.Release() }

// detach moves out of the runner the table and the buffers the record was
// made in (choosePasses, buildSide), so that it outlives the run and holds
// no pointer into the runner.
func (rec *BuildRecord) detach() {
	rec.table = rec.table.Moved()
	rec.key.passes = slices.Clone(rec.key.passes)
	rec.part.Steps = slices.Clone(rec.part.Steps)
	rec.part.Ratios.Partition = slices.Clone(rec.part.Ratios.Partition)
	rec.terms.Steps = slices.Clone(rec.terms.Steps)
}

// buildSide runs the build side under the ratios its key holds: r's radix
// passes (PHJ), then — but for PHJ-PL', which builds no shared table — the
// table(s), the build phase, the discrete build transfer, and the swap to
// a GPU-built table or the merge of separate ones. It records into rec,
// empty, what a run adds to its Result, in order. r's partitioned columns
// stay on the runner (PHJ-PL' joins from them); the probe's table moves to
// the record, and the runner frees the rest.
func (rn *runner) buildSide(rec *BuildRecord, exec *sched.Exec) error {
	opt := rn.opt
	// The record's step timings and pass ratios go to the runner's buffers,
	// grown to the build side once; a record the caller keeps is detached.
	passes := len(rec.key.passes)
	rec.part.Steps = slices.Grow(rn.recSteps[0][:0], passSteps*passes)
	rec.terms.Steps = slices.Grow(rn.recSteps[1][:0], buildSteps)
	rec.part.Ratios.Partition = slices.Grow(rn.recRatios[:0], passes)
	rn.recSteps[0], rn.recSteps[1], rn.recRatios = rec.part.Steps, rec.terms.Steps, rec.part.Ratios.Partition
	if opt.Algo == PHJ {
		if err := rn.partitionSide(&rec.part, exec, rec.key.passes, true); err != nil {
			return err
		}
	}
	if opt.Scheme == CoarsePL {
		return nil
	}
	rn.makeTables()
	defer rn.releaseTables()
	// Grouped execution reorders tuples by workload hint, and both the hint
	// values and the grouped processing order are only meaningful on a
	// single stream; the build and probe series therefore run serially when
	// the grouping optimization is enabled (the partition passes still
	// parallelize).
	bexec := *exec
	if opt.Grouping {
		bexec.Pool = nil
	}
	b := &rec.terms
	var err error
	if b.BuildNS, b.Ratios.Build, err = rn.runPhase(b, &bexec, rn.buildSeries(), rec.key.build, "build"); err != nil {
		return err
	}
	if opt.Scheme == BasicUnit {
		b.BasicUnitShares = append(b.BasicUnitShares, b.Ratios.Build[0])
	}

	// Phase-granular PCI-e traffic on the discrete architecture: ship the
	// GPU's input share over and its partial hash table back.
	if opt.Arch == Discrete {
		pcie := mem.NewPCIe()
		gpuShare := 1 - avgRatio(b.Ratios.Build)
		in := pcie.TransferNS(int64(gpuShare * float64(rn.r.Bytes())))
		back := pcie.TransferNS(int64(gpuShare * float64(rn.env.tableBytes)))
		rec.pcie = in + back
	}

	// A build that ran entirely on the GPU leaves the complete table on
	// the GPU side; probing continues there and no merge is needed (OL on
	// the discrete architecture has only the transfer overhead, Sec. 5.2).
	if rn.tableGPU != nil && avgRatio(b.Ratios.Build) == 0 {
		rn.table.Release()
		rn.table, rn.tableGPU = rn.tableGPU, nil
	}
	// Merge the per-device tables (inherent to DD with separate tables).
	if rn.tableGPU != nil && rn.tableGPU.NumKeys() > 0 {
		acct := rn.table.Merge(rn.tableGPU)
		b.MergeNS = rn.cpu.TimeNS(acct, rn.env.envFor(sched.B3, rn.cpu))
	}
	rec.tableBytes = rn.table.BytesResident()
	rec.alloc = rn.arena.Stats()
	if rn.arenaGPU != nil {
		rec.alloc.Add(rn.arenaGPU.Stats())
	}
	rec.table, rn.table = rn.table, nil
	return nil
}
