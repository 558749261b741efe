package core

import (
	"context"
	"fmt"

	"apujoin/internal/alloc"
	"apujoin/internal/hash"
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
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("core: build relation: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: probe relation: %w", err)
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

	cpu, gpu := opt.CPU, opt.GPU
	env := &envState{cache: opt.Cache, parts: 1, shared: true,
		partitionStreams: int64(1<<outerBits) * chunkBytes, scratchPressure: 512 << 10}
	exec := sched.New(env.envFor)
	exec.Ctx = ctx
	_ = cpu
	_ = gpu

	// Partition both relations chunk by chunk. Each chunk is copied into
	// the zero-copy buffer, partitioned there with the usual n1..n3 steps
	// (DD co-processing with the paper's partition-phase ratio), and the
	// intermediate partitions are copied back out to system memory: the
	// chunk's slice of out.
	partitionChunk := func(chunk, out rel.Relation) error {
		cn := chunk.Len()
		res.DataCopyNS += mem.CopyNS(chunk.Bytes()) // into zero-copy

		arena := alloc.New(opt.Alloc, cn*3+radix.ChunkTuples*4)
		defer arena.Release()
		pass := radix.NewPass(chunk, arena, 0, outerBits)
		defer pass.Release()
		series := sched.Series{
			Name:  "ext-partition",
			Items: cn,
			Steps: []sched.Step{
				{ID: sched.N1, Kernel: pass.N1},
				{ID: sched.N2, Kernel: pass.N2},
				{ID: sched.N3, Kernel: pass.N3},
			},
		}
		pres, err := exec.Run(series, sched.Uniform(0.25, 3))
		if err != nil {
			return err
		}
		res.PartitionNS += pres.TotalNS
		_, ga := pass.Gather(out)
		res.PartitionNS += exec.CPU.TimeNS(ga, env.envFor(sched.N3, exec.CPU))

		res.DataCopyNS += mem.CopyNS(chunk.Bytes()) // partitions out
		return nil
	}
	partitionRel := func(in rel.Relation) (rel.Relation, error) {
		n := in.Len()
		//apulint:ignore slabmake(the system-memory side of the external join: it outlives the zero-copy rounds the recycler serves)
		out := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
		for lo := 0; lo < n; lo += res.ChunkTuples {
			if err := ctx.Err(); err != nil {
				return rel.Relation{}, err
			}
			hi := min(lo+res.ChunkTuples, n)
			if err := partitionChunk(in.Slice(lo, hi), out.Slice(lo, hi)); err != nil {
				return rel.Relation{}, err
			}
		}
		return out, nil
	}

	// gatherPartition collects partition p's tuples across all chunks
	// ("link all the intermediate partitions together").
	gatherPartition := func(part rel.Relation, p uint32) rel.Relation {
		var out rel.Relation
		mask := uint32(1<<outerBits) - 1
		for i, k := range part.Keys {
			if hash.Murmur2(uint32(k), hash.Murmur2Seed)&mask == p {
				out.Keys = append(out.Keys, k)
				out.RIDs = append(out.RIDs, part.RIDs[i])
			}
		}
		return out
	}

	pr, err := partitionRel(r)
	if err != nil {
		return nil, err
	}
	ps, err := partitionRel(s)
	if err != nil {
		return nil, err
	}

	// Join each partition pair with the in-buffer algorithm, skipping the
	// low outerBits hash bits every key in the pair shares.
	sub := opt
	sub.HashShift = outerBits
	sub.ZeroCopy = mem.NewZeroCopy()
	sub.ZeroCopy.Capacity = opt.ZeroCopy.Capacity
	for p := uint32(0); p < uint32(res.Pairs); p++ {
		rp := gatherPartition(pr, p)
		sp := gatherPartition(ps, p)
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
