package service

import (
	"context"
	"fmt"
	"math"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/cost"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// Hybrid-hash spill executor. When a pipeline intermediate would exceed
// the residency budget (runChain's hand-off), the spiller takes over the
// remaining chain instead of failing the query:
//
//   - the current build side, its probe and every remaining probe are
//     partitioned with the shard package's fixed grid partitioner into a
//     simulated spill store (shard.SplitAt — level 0 is the grid itself,
//     deeper levels rehash with decorrelated seeds);
//   - as many partitions as the budget allows stay resident (first-fit in
//     partition order over each partition's exact intermediate size, which
//     is known from the build side's key counts before anything runs) and
//     pay no I/O; every other partition is charged one simulated
//     write+read-back round trip over its input bytes (cost.Spill*);
//   - a partition whose intermediate alone exceeds the budget is
//     recursively repartitioned at the next level, to maxSpillDepth;
//   - a partition dominated by one heavy key — repartitioning cannot split
//     a single key — falls back to a streaming nested probe: the probe
//     side is walked in budget-sized chunks and each chunk's intermediate
//     probes the full remaining chain before the next chunk starts.
//
// Every decision (partition boundaries, residency, recursion, chunking) is
// a pure function of the data and the budget — never of wall time, worker
// schedule or physical allocation state — so spilled executions keep the
// engine's determinism contract: matches and simulated times are
// bit-identical for any worker and shard count. Per-step results merge
// across partitions in partition order with shard.MergeResults, exactly as
// the sharded engine merges its grid.
const (
	// maxSpillDepth bounds recursive repartitioning: levels run out before
	// partition counts do (8^3 leaf partitions), and a partition still
	// oversized at the bound is skew the partitioner cannot fix — the
	// streaming fallback handles it.
	maxSpillDepth = 3
	// heavyKeyShare is the skew escape hatch: when one key owns at least
	// this share of a partition's build side, repartitioning is pointless
	// (a key is indivisible) and the partition streams instead.
	heavyKeyShare = 0.5
	// streamChunk floors the streaming fallback's chunk size in probe
	// tuples' worth of intermediate (8 bytes each): even a near-zero budget
	// makes progress at a useful granularity.
	streamChunk = 4096
	// replanDeviation triggers mid-pipeline re-planning when a step's
	// observed matches deviate from the orderer's estimate by more than
	// this factor of the estimate. 1.0 — off by more than the estimate
	// itself — tolerates the estimator's deliberate coarseness (quantized
	// selectivities, sampled shares) while catching genuinely wrong orders.
	replanDeviation = 1.0
)

// spiller executes the remainder of one pipeline chain under a residency
// budget. It is single-use and not safe for concurrent use; the morsel
// parallelism inside each step (opt.Pool) is unaffected.
type spiller struct {
	ctx context.Context
	cat *catalog.Catalog
	// planner plans each chain step (measured workloads); nil runs every
	// step with the pipeline's base options.
	planner *plan.Planner
	opt     core.Options
	budget  int64

	// Spill accounting: partitions written to the simulated store, their
	// input bytes, the simulated I/O charged, and the deepest
	// repartitioning level reached.
	parts int64
	bytes int64
	ns    float64
	depth int
	// resident/peak track the spiller's own transient reservations, for
	// the pipeline's peak-footprint gauge.
	resident int64
	peak     int64
}

// reserve charges transient intermediate bytes against the catalog —
// whatever portion of the demand fits; the rest is an overdraft the spill
// path is entitled to (its irreducible working set is one probe chunk's
// intermediate per chain level, which no budget can shrink further). It
// returns the physically charged portion, which the caller must hand back
// to unreserve; the spiller's own peak gauge tracks the full demand, so
// the pipeline's peak-footprint accounting stays exact and deterministic
// even when the catalog could only absorb part of it.
func (sp *spiller) reserve(b int64) (phys int64) {
	phys = sp.cat.ReserveTransient(b)
	sp.resident += b
	if sp.resident > sp.peak {
		sp.peak = sp.resident
	}
	return phys
}

// unreserve returns a reserve's physically charged portion to the catalog
// and retires its full demand from the spiller's gauge.
func (sp *spiller) unreserve(demand, phys int64) {
	if phys > 0 {
		sp.cat.Unreserve(phys)
	}
	sp.resident -= demand
}

// heavyDominated reports whether one key owns at least heavyKeyShare of
// the build side — the case repartitioning cannot improve.
func heavyDominated(counts map[int32]int32, n int) bool {
	if n == 0 {
		return false
	}
	var max int32
	for _, c := range counts { //apulint:ignore detmaporder (order-free max reduction)
		if c > max {
			max = c
		}
	}
	return float64(max) >= heavyKeyShare*float64(n)
}

// run executes the chain cur ⋈ probe ⋈ rest[0] ⋈ … under the budget by
// partitioning every input at the given repartitioning level. It returns
// one merged Result per chain step (1+len(rest) of them), bit-identical
// for any worker count.
func (sp *spiller) run(cur, probe rel.Relation, rest []rel.Relation, depth int) ([]*core.Result, error) {
	if depth > sp.depth {
		sp.depth = depth
	}
	counts := rel.KeyCounts(cur)
	if depth >= maxSpillDepth || heavyDominated(counts, cur.Len()) {
		return sp.stream(cur, probe, rest)
	}
	nsteps := 1 + len(rest)
	curP := shard.SplitAt(cur, depth)
	probeP := shard.SplitAt(probe, depth)
	restP := make([][shard.Partitions]rel.Relation, len(rest))
	for j := range rest {
		restP[j] = shard.SplitAt(rest[j], depth)
	}

	// The first intermediate's per-partition size is exact before any join
	// runs: partitioning is by key, so partition p's matches are the sum of
	// the build-side counts of p's probe keys.
	var interBytes [shard.Partitions]int64
	for p := 0; p < shard.Partitions; p++ {
		var m int64
		for _, k := range probeP[p].Keys {
			m += int64(counts[k])
		}
		interBytes[p] = m * 8
	}

	// Hybrid residency: first-fit in partition order, keeping as many
	// partitions resident as the budget holds. Resident partitions pay no
	// spill I/O; everything else is written out and read back once.
	var resident [shard.Partitions]bool
	var residentCum int64
	for p := 0; p < shard.Partitions; p++ {
		if residentCum+interBytes[p] <= sp.budget {
			residentCum += interBytes[p]
			resident[p] = true
		}
	}

	perStep := make([][]*core.Result, nsteps)
	for p := 0; p < shard.Partitions; p++ {
		if curP[p].Len() == 0 || probeP[p].Len() == 0 {
			for t := 0; t < nsteps; t++ {
				perStep[t] = append(perStep[t], emptyResult(sp.opt))
			}
			continue
		}
		if !resident[p] {
			b := curP[p].Bytes() + probeP[p].Bytes()
			for j := range restP {
				b += restP[j][p].Bytes()
			}
			sp.parts++
			sp.bytes += b
			sp.ns += cost.SpillRoundTripNS(b)
		}
		probes := make([]rel.Relation, 0, nsteps)
		probes = append(probes, probeP[p])
		for j := range restP {
			probes = append(probes, restP[j][p])
		}
		// An oversized partition (interBytes[p] > budget) recurses to the
		// next level through the chain's own pre-check.
		sub, err := sp.chain(curP[p], probes, depth)
		if err != nil {
			return nil, fmt.Errorf("spill partition %d (level %d): %w", p, depth, err)
		}
		for t := 0; t < nsteps; t++ {
			perStep[t] = append(perStep[t], sub[t])
		}
	}
	out := make([]*core.Result, nsteps)
	for t := range perStep {
		out[t] = shard.MergeResults(perStep[t])
	}
	return out, nil
}

// chain runs one partition's remaining steps sequentially, materializing
// each intermediate under a transient reservation. A step whose
// intermediate cannot fit the budget — known exactly before the step runs
// — hands the rest of the chain back to run at the next repartitioning
// level. At most one intermediate is reserved at a time: the build side's
// reservation is returned once its key counts are derived, before the next
// intermediate reserves.
func (sp *spiller) chain(build rel.Relation, probes []rel.Relation, depth int) ([]*core.Result, error) {
	out := make([]*core.Result, 0, len(probes))
	cur, curRes, curPhys := build, int64(0), int64(0)
	defer func() { sp.unreserve(curRes, curPhys) }()
	for j := 0; j < len(probes); j++ {
		probe := probes[j]
		if cur.Len() == 0 || probe.Len() == 0 {
			for range probes[j:] {
				out = append(out, emptyResult(sp.opt))
			}
			return out, nil
		}
		last := j == len(probes)-1
		var counts map[int32]int32
		if !last {
			counts = rel.KeyCounts(cur)
			var m int64
			for _, k := range probe.Keys {
				m += int64(counts[k])
			}
			if m*8 > sp.budget {
				sp.unreserve(curRes, curPhys)
				curRes, curPhys = 0, 0
				sub, err := sp.run(cur, probe, probes[j+1:], depth+1)
				if err != nil {
					return nil, err
				}
				return append(out, sub...), nil
			}
		}
		stepRes, _, _, err := planRun(sp.ctx, sp.planner, cur, probe, sp.opt, nil)
		if err != nil {
			return nil, fmt.Errorf("chain step %d: %w", j, err)
		}
		out = append(out, stepRes)
		if last {
			return out, nil
		}
		if stepRes.Matches > math.MaxInt32 {
			return nil, fmt.Errorf("chain step %d: intermediate of %d tuples exceeds the representable relation size", j, stepRes.Matches)
		}
		sp.unreserve(curRes, curPhys)
		bytes := stepRes.Matches * 8
		curRes, curPhys = bytes, sp.reserve(bytes)
		cur = core.StreamMaterialize(sp.opt.Pool, counts, probe)
	}
	return out, nil
}

// stream is the skew escape hatch: a budget-chunked nested probe for data
// partitioning cannot split (one dominant key, or the level bound
// reached). Each chunk of the probe side joins the full build, its
// intermediate probes the entire remaining chain depth-first, and its
// reservation is returned before the next chunk starts — so the peak
// footprint stays within one chunk's worth per chain level. Chunk
// boundaries depend only on key counts and the budget, keeping the
// decomposition deterministic; match counts are exact because an
// equi-join distributes over a disjoint union of its probe side.
func (sp *spiller) stream(cur, probe rel.Relation, rest []rel.Relation) ([]*core.Result, error) {
	nsteps := 1 + len(rest)
	perStep := make([][]*core.Result, nsteps)
	probes := make([]rel.Relation, 0, nsteps)
	probes = append(probes, probe)
	probes = append(probes, rest...)
	if err := sp.streamStep(perStep, cur, probes, 0); err != nil {
		return nil, err
	}
	out := make([]*core.Result, nsteps)
	for t := range perStep {
		if len(perStep[t]) == 0 {
			out[t] = emptyResult(sp.opt)
			continue
		}
		out[t] = shard.MergeResults(perStep[t])
	}
	return out, nil
}

// streamStep processes chain level j for one build relation: walk
// probes[j] in chunks whose exact intermediate fits the chunk cap, run the
// step per chunk, and recurse each chunk's intermediate into level j+1.
// Results accumulate per level in a fixed sequential order.
func (sp *spiller) streamStep(acc [][]*core.Result, build rel.Relation, probes []rel.Relation, j int) error {
	probe := probes[j]
	if build.Len() == 0 || probe.Len() == 0 {
		return nil
	}
	capB := sp.budget
	if min := int64(streamChunk) * 8; capB < min {
		capB = min
	}
	last := j == len(probes)-1
	counts := rel.KeyCounts(build)
	for lo := 0; lo < probe.Len(); {
		var m int64
		hi := lo
		for hi < probe.Len() {
			dm := int64(counts[probe.Keys[hi]])
			if hi > lo && (m+dm)*8 > capB {
				break
			}
			m += dm
			hi++
		}
		chunk := probe.Slice(lo, hi)
		lo = hi
		stepRes, err := core.RunCtx(sp.ctx, build, chunk, sp.opt)
		if err != nil {
			return fmt.Errorf("stream step %d: %w", j, err)
		}
		acc[j] = append(acc[j], stepRes)
		if last || stepRes.Matches == 0 {
			continue
		}
		bytes := stepRes.Matches * 8
		phys := sp.reserve(bytes)
		inter := core.StreamMaterialize(sp.opt.Pool, counts, chunk)
		err = sp.streamStep(acc, inter, probes, j+1)
		sp.unreserve(bytes, phys)
		if err != nil {
			return err
		}
	}
	return nil
}
