package service

import (
	"fmt"
	"slices"
	"sync"

	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// Hybrid-hash spill executor. When a chain's next intermediate would exceed
// the residency budget (runChain's pre-check, before the step runs), the
// chain's own run takes over the rest of it instead of failing the query:
//
//   - the current build side, its probe and every remaining probe are
//     partitioned with the shard package's fixed grid partitioner into a
//     simulated spill store (shard.SplitInto on the pool, into one pair of
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
//     workload once and then runs the plan: the spill point has one plan
//     table, one entry per remaining step; one partition chain, the
//     level's leader, writes the plan each of its steps ran into it (a
//     level nested below the leader writes through the table's tail), and
//     every other chain runs the table's plan for each step, at every level
//     below it too.
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
// chains have run: its leader (-1: none), its plan table (nil: the query is
// not auto-planned) and every partition's steps, len(probes) each. The
// steps are valid only during the call: the level releases them once it
// has merged them, so a hook copies what it keeps. Tests set it.
var spillLevelHook func(leader int, plans []*core.Plan, steps []*core.Result)

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
func (c *chain) reserve(b int64) (phys int64) {
	phys = c.cat.ReserveTransient(b)
	c.resident += b
	c.peak = max(c.peak, c.resident)
	return phys
}

// unreserve returns a reserve's physically charged portion to the catalog
// and retires its full demand from the chain's gauge.
func (c *chain) unreserve(demand, phys int64) {
	c.cat.Unreserve(phys)
	c.resident -= demand
}

// run executes the chain cur ⋈ in[probes[0]] ⋈ in[probes[1]] ⋈ … under the
// budget by partitioning every input at repartitioning level c.level, and
// adds one merged Result per chain step to c, the first its spilled step.
// The merged Results are bit-identical for any worker count.
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
// plans is the spill point's plan table, one entry per remaining step (nil:
// the query is not auto-planned). Every partition chain of the level runs
// against it: with c's cache, the level's leader writes the plans it ran
// into it; every other chain reads them. A level that streams writes
// nothing: the stream plans nothing.
//
// The level's scratch comes from levels and its partitions' step Results
// are its own: once merged, they are released (core.Result.Release) —
// nested levels' merged ones too — and only the merged Results outlive run.
func (c *chain) run(cur rel.Relation, in []rel.Relation, probes []int, counts rel.Counts, plans []*core.Plan) error {
	depth := c.level
	c.depth = max(c.depth, depth)
	lv := takeLevel()
	defer lv.put()
	lv.in = append(lv.in[:0], cur)
	for _, i := range probes {
		lv.in = append(lv.in, in[i])
	}
	if depth >= maxSpillDepth || dominated(cur, counts) {
		return c.stream(cur, lv.in[1:])
	}
	lv.split = slices.Grow(lv.split[:0], len(lv.in))[:len(lv.in)]
	slab := shard.SplitInto(c.opt.Pool, depth, lv.split, lv.in...)
	defer slab.Release()
	split := lv.split
	// The loop is the parallelism: each partition's lookups run inline.
	lv.counts = counts
	c.opt.Pool.ForEach(shard.Partitions, lv.count)

	// Hybrid residency: first-fit in partition order over the exact sizes,
	// keeping as many partitions resident as the budget holds, in one pass
	// before any chain runs. Resident partitions pay no spill I/O;
	// everything else is written out and read back once — but a partition
	// with an empty side joins to nothing (the chain reports zero results
	// for it) and is never written out.
	const n = shard.Partitions
	var residentCum int64
	for p := range lv.spills {
		lv.spills[p] = 0
		if m := lv.mults[p].Total * 8; residentCum+m <= c.budget {
			residentCum += m
		} else if split[0][p].Len() > 0 && split[1][p].Len() > 0 {
			for j := range split {
				lv.spills[p] += split[j][p].Bytes()
			}
		}
	}

	// Every partition's chain runs through runChain one level down, from
	// counts and its multiplicities, against plans (an intermediate the
	// budget cannot hold recurses through the chain's own pre-check). An
	// auto-planned level plans once: its leader — the lowest partition whose
	// first step has two non-empty sides, else partition 0 — runs first, on
	// c's cache, writing plans, and the others then run concurrently on the
	// pool, each step under the entry the leader's step wrote. Below a
	// follower nothing plans: its chains have the table and no cache.
	lv.order = lv.order[:0]
	for i := range split {
		lv.order = append(lv.order, i)
	}
	k := len(split) - 1
	lv.steps = slices.Grow(lv.steps[:0], n*k)[:n*k]
	for p := range lv.kids {
		lv.kids[p] = chain{ctx: c.ctx, cat: c.cat, opt: c.opt, budget: c.budget, level: depth + 1, plans: plans,
			steps: lv.steps[p*k : p*k : (p+1)*k], spills: lv.kids[p].spills[:0]}
	}
	lv.leader = -1
	if c.cache != nil {
		lv.leader = 0
		for p := range n {
			if split[0][p].Len() > 0 && split[1][p].Len() > 0 {
				lv.leader = p
				break
			}
		}
		lv.kids[lv.leader].cache = c.cache
		if err := lv.runAt(lv.leader); err != nil {
			return fmt.Errorf("level %d: partition %d: %w", depth, lv.leader, err)
		}
	}
	// The lowest failing partition's error: deterministic whatever order
	// the partitions finished in.
	c.opt.Pool.ForEach(n, lv.each)
	for p, err := range lv.errs {
		if err != nil {
			return fmt.Errorf("level %d: partition %d: %w", depth, p, err)
		}
	}
	if spillLevelHook != nil {
		spillLevelHook(lv.leader, plans, lv.steps)
	}

	// The partition chains fold back in partition order, as if they had run
	// one after another on c.
	grow := 0
	for p := range lv.kids {
		grow += len(lv.kids[p].spills)
		if lv.spills[p] > 0 {
			grow++
		}
	}
	c.spills = slices.Grow(c.spills, grow)
	for p := range lv.kids {
		kid := &lv.kids[p]
		if lv.spills[p] > 0 {
			c.spills = append(c.spills, lv.spills[p])
		}
		c.spills = append(c.spills, kid.spills...)
		c.depth = max(c.depth, kid.depth)
		c.peak = max(c.peak, c.resident+kid.peak)
	}
	var col [n]*core.Result
	for t := range k {
		for p := range col {
			col[p] = lv.steps[p*k+t]
		}
		c.addSpilled(t, shard.MergeResults(col[:]))
	}
	for _, r := range lv.steps {
		r.Release()
	}
	return nil
}

// addSpilled adds the merged Result of the spill's t-th step to c: the
// first is the chain's spilled step.
func (c *chain) addSpilled(t int, r *core.Result) {
	if t == 0 {
		c.spilled = r
	}
	c.add(r, nil, false)
}

// level is the scratch of one partitioned spill level, taken from levels:
// the split's inputs and partitions, the partitions' chains,
// multiplicities, spill sizes and errors, and the chains' step Results,
// with the pieces the pool runs bound to it once, so a level makes no
// garbage.
type level struct {
	counts rel.Counts
	in     []rel.Relation
	split  [][shard.Partitions]rel.Relation
	order  []int
	steps  []*core.Result // partition p's step t at p*len(order[1:])+t
	leader int            // the partition that ran first (-1: none)
	kids   [shard.Partitions]chain
	mults  [shard.Partitions]core.Mults
	spills [shard.Partitions]int64
	errs   [shard.Partitions]error
	// count and each are countAt and runEach, bound once.
	count, each func(p int)
}

var levels = sync.Pool{New: func() any { return new(level) }}

// takeLevel returns a level from levels, its pieces bound. (levels cannot
// bind them itself: runEach reaches run, which reads levels.)
func takeLevel() *level {
	lv := levels.Get().(*level)
	if lv.count == nil {
		lv.count, lv.each = lv.countAt, lv.runEach
	}
	return lv
}

// countAt looks partition p's first probe up in the spill point's counts.
func (lv *level) countAt(p int) {
	lv.mults[p] = core.Multiplicities(nil, lv.counts, lv.split[1][p].Keys)
}

// runEach runs partition p's chain, unless it is the leader, which ran
// first, and records its error.
func (lv *level) runEach(p int) {
	lv.errs[p] = nil
	if p != lv.leader {
		lv.errs[p] = lv.runAt(p)
	}
}

// runAt runs partition p's chain, its inputs in chain order on its own
// stack.
func (lv *level) runAt(p int) error {
	var buf [4]rel.Relation
	in := buf[:0]
	for j := range lv.split {
		in = append(in, lv.split[j][p])
	}
	return lv.kids[p].runChain(in, lv.order, lv.counts, lv.mults[p])
}

// put releases the level's multiplicities, drops every reference it holds
// — the partition chains keep their spills' capacity — and hands lv back to
// levels.
func (lv *level) put() {
	for p := range lv.mults {
		lv.mults[p].Release()
	}
	for p := range lv.kids {
		lv.kids[p] = chain{spills: lv.kids[p].spills[:0]}
	}
	clear(lv.in)
	clear(lv.split)
	clear(lv.steps)
	clear(lv.errs[:])
	lv.counts = rel.Counts{}
	levels.Put(lv)
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
func (c *chain) stream(cur rel.Relation, probes []rel.Relation) error {
	perStep := make([][]*core.Result, len(probes))
	if err := c.streamStep(perStep, cur, probes, 0); err != nil {
		return err
	}
	for t, chunks := range perStep {
		if len(chunks) == 0 {
			c.addSpilled(t, emptyResult(*c.opt))
			continue
		}
		c.addSpilled(t, shard.MergeResults(chunks))
		for _, r := range chunks {
			r.Release()
		}
	}
	return nil
}

// streamStep processes chain level j for one build relation: walk
// probes[j] in chunks whose exact intermediate fits the chunk cap, run the
// step per chunk, and recurse each chunk's intermediate into level j+1.
// The probe's multiplicities are computed once: they cut the chunks, and
// each chunk's intermediate fills from its own stretch of them. Results
// accumulate per level in a fixed sequential order.
func (c *chain) streamStep(acc [][]*core.Result, build rel.Relation, probes []rel.Relation, j int) error {
	probe := probes[j]
	if build.Len() == 0 || probe.Len() == 0 {
		return nil
	}
	capB := max(c.budget, int64(streamChunk)*8)
	last := j == len(probes)-1
	counts := rel.KeyCounts(build)
	mult := core.Multiplicities(c.opt.Pool, counts, probe.Keys)
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
		stepRes, err := core.RunCtx(c.ctx, build, chunk, *c.opt)
		if err != nil {
			return fmt.Errorf("stream step %d: %w", j, err)
		}
		acc[j] = append(acc[j], stepRes)
		if last || stepRes.Matches == 0 {
			continue
		}
		bytes := stepRes.Matches * 8
		phys := c.reserve(bytes)
		inter := core.StreamFill(c.opt.Pool, chunk, mult.Of[lo:hi])
		err = c.streamStep(acc, inter, probes, j+1)
		inter.Release()
		c.unreserve(bytes, phys)
		if err != nil {
			return err
		}
	}
	return nil
}
