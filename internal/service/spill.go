package service

import (
	"context"
	"fmt"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// Hybrid-hash spill executor. When a chain's next intermediate would exceed
// the residency budget (runChain's pre-check, before the step runs), the
// spiller takes over the remaining chain instead of failing the query:
//
//   - the current build side, its probe and every remaining probe are
//     partitioned with the shard package's fixed grid partitioner into a
//     simulated spill store (shard.SplitAt on the pool, into one pair of
//     recycled slabs per level — level 0 is the grid itself, deeper levels
//     rehash with decorrelated seeds);
//   - as many partitions as the budget allows stay resident (first-fit in
//     partition order over each partition's exact intermediate size, which
//     the spill point's key counts give, partition by partition on the
//     pool, before anything runs) and pay no I/O; every other partition is
//     charged one simulated write+read-back round trip over its input
//     bytes (cost.Spill*);
//   - a partition whose intermediate alone exceeds the budget is
//     recursively repartitioned at the next level, to maxSpillDepth;
//   - a partition dominated by one heavy key — repartitioning cannot split
//     a single key — falls back to a streaming nested probe: the probe
//     side is walked in budget-sized chunks and each chunk's intermediate
//     probes the full remaining chain before the next chunk starts;
//   - an auto-planned level plans once, as the paper profiles and plans a
//     workload once and then runs the plan: one partition chain, the
//     level's leader, plans its steps, and every other chain runs the
//     leader's plan for each step, at every level below it too.
//
// Every decision (partition boundaries, residency, recursion, chunking,
// the leader) is a pure function of the data and the budget — never of
// wall time, worker schedule or physical allocation state — so spilled
// executions keep the engine's determinism contract: matches and simulated
// times are bit-identical for any worker and server count. Per-step results merge
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

// spillLevelHook, when set, sees every partitioned spill level once its
// chains have run: its leader (-1: none), the plans its other chains ran
// (nil: none) and every partition's steps, len(probes) each. Tests set it.
var spillLevelHook func(leader int, inherit []*core.Plan, steps []*core.Result)

// spiller is what one chain runs against — the catalog its intermediates
// reserve in, its planner (nil: the chain runs the plans it inherited as a
// follower, or else the base options) and its residency budget — and, once
// the chain spills, the hybrid-hash spill executor of the rest, with the
// spill accounting of every level below. A spiller is not safe for
// concurrent use: run gives each partition chain a child spiller of its own
// and folds the children back in partition order.
type spiller struct {
	ctx     context.Context
	cat     *catalog.Catalog
	planner *plan.Planner
	opt     *core.Options
	// budget pre-checks every intermediate before it is produced: a grid
	// partition's share of the total budget less what is registered into
	// it, so which chains spill is a pure function of data and budget,
	// never of how partitions are packed into shards or of what concurrent
	// pipelines hold.
	budget int64

	// spills holds the input bytes of every partition written to the
	// simulated store, in the order the sequential spill executor meets
	// them — their count, sum and I/O charge are the spill accounting —
	// and depth the deepest repartitioning level reached.
	spills []int64
	depth  int
	// resident/peak track the demand of every transient reservation, for
	// the pipeline's peak-footprint gauge.
	resident int64
	peak     int64
}

// reserve charges an intermediate's bytes against the catalog — whatever
// portion of the demand fits. The rest is an overdraft: another pipeline
// holds that space right now, or it is the spill path's irreducible working
// set (one probe chunk's intermediate per chain level, which no budget can
// shrink further); whether the intermediate is held at all was decided
// against the budget before it was produced. reserve returns the
// physically charged portion, which the caller must hand back to
// unreserve; the peak gauge tracks the full demand, so the pipeline's
// peak-footprint accounting stays exact and deterministic whatever the
// catalog could absorb.
func (sp *spiller) reserve(b int64) (phys int64) {
	phys = sp.cat.ReserveTransient(b)
	sp.resident += b
	sp.peak = max(sp.peak, sp.resident)
	return phys
}

// unreserve returns a reserve's physically charged portion to the catalog
// and retires its full demand from the spiller's gauge.
func (sp *spiller) unreserve(demand, phys int64) {
	sp.cat.Unreserve(phys)
	sp.resident -= demand
}

// run executes the chain cur ⋈ probes[0] ⋈ probes[1] ⋈ … under the budget
// by partitioning every input at the given repartitioning level. It
// returns one merged Result per chain step, bit-identical for any worker
// count.
//
// counts is the spill point's key → multiplicity table, covering cur's
// keys: cur's own, or a table over a relation cur is a key-split part of
// (a registered source's ingest table, a parent level's), whose count of
// every key of cur is cur's. Every input splits on the pool into
// consecutive sub-slices of one keys slab, handed back when run returns.
// Partitions split by key, so counts serves every partition too: each
// looks its probe keys up in it once, on the pool, and the multiplicities'
// total is its exact first intermediate. The table and multiplicities then
// serve the partition's first chain step — its pre-check reads the total
// and its hand-off fills from the slab, so that step looks its probe up
// once. run owns the multiplicities and releases them when it returns;
// counts stays the caller's.
//
// inherit, when non-nil, are the plans of the remaining steps that a
// follower chain inherited, which every partition chain runs. A spiller
// with a planner returns the plans its leader's chain ran, one per step
// (none when it streams: the stream plans nothing).
func (sp *spiller) run(cur rel.Relation, probes []rel.Relation, counts rel.Counts, depth int, inherit []*core.Plan) ([]*core.Result, []*core.Plan, error) {
	sp.depth = max(sp.depth, depth)
	if depth >= maxSpillDepth || dominated(cur, counts) {
		steps, err := sp.stream(cur, probes)
		return steps, nil, err
	}
	split, slab := shard.SplitAt(sp.opt.Pool, depth, append([]rel.Relation{cur}, probes...)...)
	var mults [shard.Partitions]core.Mults
	defer func() {
		for p := range mults {
			mults[p].Release()
		}
		slab.Release()
	}()
	// The loop is the parallelism: each partition's lookups run inline.
	sp.opt.Pool.ForEach(shard.Partitions, func(p int) {
		mults[p] = core.Multiplicities(nil, counts, split[1][p].Keys)
	})

	// Hybrid residency: first-fit in partition order over the exact sizes,
	// keeping as many partitions resident as the budget holds, in one pass
	// before any chain runs. Resident partitions pay no spill I/O;
	// everything else is written out and read back once — but a partition
	// with an empty side joins to nothing (the chain reports zero results
	// for it) and is never written out.
	const n = shard.Partitions
	var spills [n]int64
	var residentCum int64
	for p := range spills {
		if m := mults[p].Total * 8; residentCum+m <= sp.budget {
			residentCum += m
		} else if split[0][p].Len() > 0 && split[1][p].Len() > 0 {
			for j := range split {
				spills[p] += split[j][p].Bytes()
			}
		}
	}

	// Every partition's chain runs through runChain one level down, from
	// counts and its multiplicities, on a child spiller (an intermediate the
	// budget cannot hold recurses through the chain's own pre-check). An
	// auto-planned level plans once: its leader — the lowest partition whose
	// first step has two non-empty sides, else partition 0 — runs first, on
	// this spiller's planner, and the others then run concurrently on the
	// pool, each step under the plan the leader's step ran. Below a
	// follower nothing plans: its chains take the plans it inherited. A
	// chain's inputs, in chain order, sit on its own stack.
	order := make([]int, len(split))
	for i := range order {
		order[i] = i
	}
	k := len(probes)
	steps := make([]*core.Result, n*k)
	kids := make([]spiller, n)
	runAt := func(p int, planner *plan.Planner, c *chain) error {
		var buf [4]rel.Relation
		in := buf[:0]
		for j := range split {
			in = append(in, split[j][p])
		}
		kids[p] = spiller{ctx: sp.ctx, cat: sp.cat, planner: planner, opt: sp.opt, budget: sp.budget}
		c.level, c.steps = depth+1, steps[p*k:p*k:(p+1)*k]
		return kids[p].runChain(c, in, order, counts, mults[p])
	}
	leader := -1
	if sp.planner != nil {
		leader = 0
		for p := range n {
			if split[0][p].Len() > 0 && split[1][p].Len() > 0 {
				leader = p
				break
			}
		}
		lead := &chain{ran: make([]*core.Plan, 0, k)}
		if err := runAt(leader, sp.planner, lead); err != nil {
			return nil, nil, fmt.Errorf("level %d: partition %d: %w", depth, leader, err)
		}
		inherit = lead.ran
	}
	err := runPartitions(sp.opt.Pool, n, func(p int) error {
		if p == leader {
			return nil
		}
		return runAt(p, nil, &chain{inherit: inherit})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("level %d: %w", depth, err)
	}
	if spillLevelHook != nil {
		spillLevelHook(leader, inherit, steps)
	}

	// The children fold back in partition order, as if their chains had run
	// one after another on this spiller.
	for p, kid := range kids {
		if spills[p] > 0 {
			sp.spills = append(sp.spills, spills[p])
		}
		sp.spills = append(sp.spills, kid.spills...)
		sp.depth = max(sp.depth, kid.depth)
		sp.peak = max(sp.peak, sp.resident+kid.peak)
	}
	out := make([]*core.Result, k)
	var col [n]*core.Result
	for t := range out {
		for p := range col {
			col[p] = steps[p*k+t]
		}
		out[t] = shard.MergeResults(col[:])
	}
	return out, inherit, nil
}

// dominated reports whether one key owns heavyKeyShare of cur — the case
// repartitioning cannot improve, since a key is indivisible. counts holds
// every key of cur at its count in cur (run's contract). Its Max bounds
// cur's heaviest key from above — a table over more than cur can hold a
// heavier key cur lacks — so cur's keys are read only when the bound
// reaches the share.
func dominated(cur rel.Relation, counts rel.Counts) bool {
	limit := heavyKeyShare * float64(cur.Len())
	if float64(counts.Max()) < limit {
		return false
	}
	for _, k := range cur.Keys {
		if float64(counts.Of(k)) >= limit {
			return true
		}
	}
	return false
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
			out[t] = emptyResult(*sp.opt)
			continue
		}
		out[t] = shard.MergeResults(perStep[t])
	}
	return out, nil
}

// streamStep processes chain level j for one build relation: walk
// probes[j] in chunks whose exact intermediate fits the chunk cap, run the
// step per chunk, and recurse each chunk's intermediate into level j+1.
// The probe's multiplicities are computed once: they cut the chunks, and
// each chunk's intermediate fills from its own stretch of them. Results
// accumulate per level in a fixed sequential order.
func (sp *spiller) streamStep(acc [][]*core.Result, build rel.Relation, probes []rel.Relation, j int) error {
	probe := probes[j]
	if build.Len() == 0 || probe.Len() == 0 {
		return nil
	}
	capB := max(sp.budget, int64(streamChunk)*8)
	last := j == len(probes)-1
	counts := rel.KeyCounts(build)
	mult := core.Multiplicities(sp.opt.Pool, counts, probe.Keys)
	counts.Release()
	defer mult.Release()
	for lo, hi := 0, 0; lo < probe.Len(); lo = hi {
		var m int64
		for hi < probe.Len() {
			dm := int64(mult.Of[hi])
			if hi > lo && (m+dm)*8 > capB {
				break
			}
			m += dm
			hi++
		}
		chunk := probe.Slice(lo, hi)
		stepRes, err := core.RunCtx(sp.ctx, build, chunk, *sp.opt)
		if err != nil {
			return fmt.Errorf("stream step %d: %w", j, err)
		}
		acc[j] = append(acc[j], stepRes)
		if last || stepRes.Matches == 0 {
			continue
		}
		bytes := stepRes.Matches * 8
		phys := sp.reserve(bytes)
		inter := core.StreamFill(sp.opt.Pool, chunk, mult.Of[lo:hi])
		err = sp.streamStep(acc, inter, probes, j+1)
		inter.Release()
		sp.unreserve(bytes, phys)
		if err != nil {
			return err
		}
	}
	return nil
}
