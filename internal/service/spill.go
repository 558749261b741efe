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

// run executes the chain cur ⋈ probes[0] ⋈ probes[1] ⋈ … under the budget
// by partitioning every input at the given repartitioning level. It
// returns one merged Result per chain step, bit-identical for any worker
// count.
//
// The build side's key counts are derived once, per partition: partitions
// hold disjoint key sets, so the heaviest key overall is the heaviest of
// any partition, each partition's exact intermediate size reads its own
// table, and that table then serves the partition's first chain step.
func (sp *spiller) run(cur rel.Relation, probes []rel.Relation, depth int) ([]*core.Result, error) {
	if depth > sp.depth {
		sp.depth = depth
	}
	if depth >= maxSpillDepth {
		return sp.stream(cur, probes)
	}
	curP := shard.SplitAt(cur, depth)
	var counts [shard.Partitions]rel.Counts
	defer func() {
		for p := range counts {
			counts[p].Release()
		}
	}()
	var heaviest int32
	for p := range counts {
		counts[p] = rel.KeyCounts(curP[p])
		heaviest = max(heaviest, counts[p].Max())
	}
	// One key owning heavyKeyShare of the build side is the case
	// repartitioning cannot improve.
	if heaviest > 0 && float64(heaviest) >= heavyKeyShare*float64(cur.Len()) {
		return sp.stream(cur, probes)
	}
	probeP := make([][shard.Partitions]rel.Relation, len(probes))
	for j := range probes {
		probeP[j] = shard.SplitAt(probes[j], depth)
	}

	// Hybrid residency: first-fit in partition order, keeping as many
	// partitions resident as the budget holds. Resident partitions pay no
	// spill I/O; everything else is written out and read back once. The
	// first intermediate's per-partition size is exact before any join
	// runs: partitioning is by key, so partition p's matches are the sum of
	// the build-side counts of p's probe keys.
	var resident [shard.Partitions]bool
	var residentCum int64
	for p := range resident {
		if b := counts[p].Matches(probeP[0][p].Keys) * 8; residentCum+b <= sp.budget {
			residentCum += b
			resident[p] = true
		}
	}

	perStep := make([][]*core.Result, len(probes))
	for p := 0; p < shard.Partitions; p++ {
		part := make([]rel.Relation, len(probes))
		b := curP[p].Bytes()
		for j := range probeP {
			part[j] = probeP[j][p]
			b += part[j].Bytes()
		}
		// A partition with an empty side joins to nothing (the chain reports
		// zero results for it) and is never written out.
		if !resident[p] && curP[p].Len() > 0 && part[0].Len() > 0 {
			sp.parts++
			sp.bytes += b
			sp.ns += cost.SpillRoundTripNS(b)
		}
		// An oversized partition (its first intermediate alone exceeds the
		// budget) recurses to the next level through the chain's own
		// pre-check.
		sub, err := sp.chain(curP[p], counts[p], part, depth)
		if err != nil {
			return nil, fmt.Errorf("spill partition %d (level %d): %w", p, depth, err)
		}
		for t := range perStep {
			perStep[t] = append(perStep[t], sub[t])
		}
	}
	out := make([]*core.Result, len(probes))
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
// reservation is returned once its consumer step has run, before the next
// intermediate reserves.
//
// counts is build's key → multiplicity table and stays the caller's. Every
// later build side is an intermediate this chain produced: the chain
// derives its counts (the last step needs none), and hands both back to
// the recycler once the step consuming them has produced the next one.
// Where a step has its build counts, its planner buckets come from them
// (plan.CountsWorkload) instead of another scan of the build side.
func (sp *spiller) chain(build rel.Relation, counts rel.Counts, probes []rel.Relation, depth int) ([]*core.Result, error) {
	out := make([]*core.Result, 0, len(probes))
	cur, curRes, curPhys := build, int64(0), int64(0)
	var inter rel.Relation     // cur, when this chain produced it
	var interCounts rel.Counts // counts, when this chain derived them
	defer func() {
		sp.unreserve(curRes, curPhys)
		interCounts.Release()
		core.ReleaseStreamed(inter)
	}()
	for j := 0; j < len(probes); j++ {
		probe := probes[j]
		if cur.Len() == 0 || probe.Len() == 0 {
			for range probes[j:] {
				out = append(out, emptyResult(sp.opt))
			}
			return out, nil
		}
		last := j == len(probes)-1
		// cur's counts exist at step 0 (the caller's) and at every step that
		// hands an intermediate on.
		counted := j == 0 || !last
		if j > 0 && counted {
			interCounts = rel.KeyCounts(cur)
			counts = interCounts
		}
		if !last && counts.Matches(probe.Keys)*8 > sp.budget {
			sp.unreserve(curRes, curPhys)
			curRes, curPhys = 0, 0
			sub, err := sp.run(cur, probes[j:], depth+1)
			if err != nil {
				return nil, err
			}
			return append(out, sub...), nil
		}
		var w *plan.Workload
		if sp.planner != nil && counted {
			cw := plan.CountsWorkload(counts, probe)
			w = &cw
		}
		stepRes, _, _, err := planRun(sp.ctx, sp.planner, cur, probe, sp.opt, w)
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
		next := core.StreamMaterialize(sp.opt.Pool, counts, probe)
		interCounts.Release()
		core.ReleaseStreamed(inter)
		cur, inter = next, next
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
func (sp *spiller) stream(cur rel.Relation, probes []rel.Relation) ([]*core.Result, error) {
	perStep := make([][]*core.Result, len(probes))
	if err := sp.streamStep(perStep, cur, probes, 0); err != nil {
		return nil, err
	}
	out := make([]*core.Result, len(probes))
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
	defer counts.Release()
	for lo := 0; lo < probe.Len(); {
		var m int64
		hi := lo
		for hi < probe.Len() {
			dm := int64(counts.Of(probe.Keys[hi]))
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
		core.ReleaseStreamed(inter)
		sp.unreserve(bytes, phys)
		if err != nil {
			return err
		}
	}
	return nil
}
