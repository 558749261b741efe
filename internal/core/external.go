package core

import (
	"context"
	"fmt"

	"apujoin/internal/mem"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// ExternalResult reports a join of data larger than the zero-copy buffer
// (paper appendix, Fig. 19). The elapsed time divides into partition time,
// join time and data-copy time, the three components of the paper's
// stacked bars.
type ExternalResult struct {
	Matches int64

	PartitionNS float64
	JoinNS      float64
	DataCopyNS  float64
	TotalNS     float64

	// Pairs is the number of partition pairs joined; ChunkTuples is the
	// partitioning block size (the paper uses 16M-tuple chunks).
	Pairs       int
	ChunkTuples int
	OuterBits   uint
}

// RunExternal joins relations whose combined footprint exceeds the
// zero-copy buffer, treating the buffer as "main memory" and system memory
// as "external memory" (classic external hash join): the inputs are radix
// partitioned in zero-copy-sized chunks, the intermediate partitions are
// copied out to system memory and linked, and each partition pair is then
// joined with the configured in-buffer algorithm (opt.Algo / opt.Scheme).
func RunExternal(r, s rel.Relation, opt Options) (*ExternalResult, error) {
	return RunExternalCtx(context.Background(), r, s, opt)
}

// RunExternalCtx is RunExternal with cancellation, checked at chunk and
// partition-pair boundaries. When no pool is injected, one transient pool
// serves every per-pair sub-join rather than each sub-join spawning its
// own.
func RunExternalCtx(ctx context.Context, r, s rel.Relation, opt Options) (*ExternalResult, error) {
	if opt.Plan != nil {
		// A plan is built for one whole workload; the per-pair sub-joins
		// below have different sizes and hash shifts. Keep the plan's
		// algorithm/scheme choice but let each sub-join profile and pick
		// its own ratios.
		opt.Algo, opt.Scheme, opt.Arch = opt.Plan.Algo, opt.Plan.Scheme, opt.Plan.Arch
		opt.Plan = nil
	}
	opt.SetDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Pool == nil {
		pool := sched.NewPool(opt.Workers)
		defer pool.Close()
		opt.Pool = pool
	}
	res := &ExternalResult{}

	// Chunk size: the block of tuples partitioned inside the zero-copy
	// buffer per round; capacity/32 bytes-per-tuple-with-structures gives
	// the paper's 16M tuples at 512 MB.
	res.ChunkTuples = int(opt.ZeroCopy.Capacity / 32)

	// Outer fan-out: enough partitions that one pair (R part + S part,
	// plus data-sized join structures) fits comfortably in the buffer.
	pairBudget := opt.ZeroCopy.Capacity / 4
	outerBits := uint(0)
	for (r.Bytes()+s.Bytes())>>outerBits > pairBudget && outerBits < 12 {
		outerBits++
	}
	// Keep a healthy fan-out: few partitions serialize the latched
	// partition headers under the GPU's lane count (same reasoning as
	// radix.PlanFor).
	if outerBits < 6 {
		outerBits = 6
	}
	res.OuterBits = outerBits
	res.Pairs = 1 << outerBits
	// A pass fans out to at most radix.MaxBitsPerPass bits, so a wider outer
	// fan-out takes more than one pass per round, as PHJ's partitioning does.
	outer := radix.PlanBits(outerBits)

	// The passes run on a runner of no relations and no pool, so their
	// series is single-stream and each is laid out before it gathers.
	rn := newRunner(rel.Relation{}, rel.Relation{}, opt)
	defer rn.release()
	rn.env = envState{cache: opt.Cache, parts: 1, shared: true, scratchPressure: 512 << 10}
	exec := &rn.exec
	exec.Ctx = ctx

	// partitionPass runs one pass of the outer partitioning over in with the
	// usual n1..n3 steps (DD co-processing with the paper's partition-phase
	// ratio), leaving its partitions in out, and returns their offsets.
	partitionPass := func(in, out rel.Relation, shift, bits uint) ([]int32, error) {
		rn.pass.Init(in, opt.Alloc, shift, bits)
		defer rn.pass.Release()
		rn.env.partitionStreams = int64(1<<bits) * chunkBytes
		pres, err := exec.Run(rn.passSeries(in.Len()), sched.Uniform(0.25, 3))
		if err != nil {
			return nil, err
		}
		res.PartitionNS += pres.TotalNS
		rn.pass.Layout(opt.Pool)
		offs, ga := rn.pass.Gather(opt.Pool, out)
		res.PartitionNS += exec.CPU.TimeNS(ga, rn.env.envFor(sched.N3, exec.CPU))
		return offs, nil
	}

	// Partition both relations chunk by chunk. Each chunk is copied into
	// the zero-copy buffer, partitioned there pass by pass, and the
	// intermediate partitions are copied back out to system memory: the
	// chunk's slice of out, whose partition offsets are returned. The passes
	// ping-pong through one scratch chunk so that the last writes out.
	partitionChunk := func(chunk, out rel.Relation) ([]int32, error) {
		res.DataCopyNS += mem.CopyNS(chunk.Bytes()) // into zero-copy
		var scratch rel.Relation
		if outer.Passes() > 1 {
			scratch = rel.Recycled(chunk.Len()) // every pass's Gather writes all of it
			defer scratch.Release()
		}
		cur := chunk
		var offs []int32
		var shift uint
		for pi, bits := range outer.BitsPerPass {
			dst := out
			if (outer.Passes()-pi)%2 == 0 {
				dst = scratch
			}
			var err error
			if offs, err = partitionPass(cur, dst, shift, bits); err != nil {
				return nil, err
			}
			cur = dst
			shift += bits
		}
		if outer.Passes() > 1 {
			// A later pass's boundaries cover only its own fan-out.
			offs = radix.FinalOffsets(out, outer)
		}
		res.DataCopyNS += mem.CopyNS(chunk.Bytes()) // partitions out
		return offs, nil
	}
	// partitionRel returns in partitioned round by round, with each round's
	// partition offsets into its own slice of the result.
	partitionRel := func(in rel.Relation) (rel.Relation, [][]int32, error) {
		n := in.Len()
		//apulint:ignore slabmake(the system-memory side of the external join: it outlives the zero-copy rounds the recycler serves)
		out := rel.Relation{Keys: make([]int32, n)}
		var rounds [][]int32
		for lo := 0; lo < n; lo += res.ChunkTuples {
			if err := ctx.Err(); err != nil {
				return rel.Relation{}, nil, err
			}
			hi := min(lo+res.ChunkTuples, n)
			offs, err := partitionChunk(in.Slice(lo, hi), out.Slice(lo, hi))
			if err != nil {
				return rel.Relation{}, nil, err
			}
			rounds = append(rounds, offs)
		}
		return out, rounds, nil
	}

	// gatherPartition collects partition p's tuples across all rounds
	// ("link all the intermediate partitions together"): round order, then
	// the round's in-partition order.
	gatherPartition := func(part rel.Relation, rounds [][]int32, p int) rel.Relation {
		var out rel.Relation
		for k, offs := range rounds {
			lo, hi := k*res.ChunkTuples+int(offs[p]), k*res.ChunkTuples+int(offs[p+1])
			out.Keys = append(out.Keys, part.Keys[lo:hi]...)
		}
		return out
	}

	pr, roundsR, err := partitionRel(r)
	if err != nil {
		return nil, err
	}
	ps, roundsS, err := partitionRel(s)
	if err != nil {
		return nil, err
	}

	// Join each partition pair with the in-buffer algorithm, skipping the
	// low outerBits hash bits every key in the pair shares.
	sub := opt
	sub.hashShift = outerBits
	sub.ZeroCopy = mem.NewZeroCopy()
	sub.ZeroCopy.Capacity = opt.ZeroCopy.Capacity
	for p := 0; p < res.Pairs; p++ {
		rp := gatherPartition(pr, roundsR, p)
		sp := gatherPartition(ps, roundsS, p)
		if rp.Len() == 0 || sp.Len() == 0 {
			continue
		}
		res.DataCopyNS += mem.CopyNS(rp.Bytes() + sp.Bytes()) // pair into buffer

		pres, err := RunCtx(ctx, rp, sp, sub)
		if err != nil {
			return nil, fmt.Errorf("core: external pair %d: %w", p, err)
		}
		res.Matches += pres.Matches
		res.JoinNS += pres.TotalNS
	}

	res.TotalNS = res.PartitionNS + res.JoinNS + res.DataCopyNS
	return res, nil
}
