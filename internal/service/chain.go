package service

import (
	"context"
	"fmt"
	"math"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
)

// planFor plans one pairwise join on the plan cache c: the fingerprint of
// the registered pair's workload w when the caller has one (fingerprinting
// then reads neither relation), else of a measured one. build is r's entry
// when r is a registered slice (nil otherwise), whose kept pilot a cold plan
// probes (catalog.Entry.BuildPlan); the miss runs on the caller's goroutine,
// under the caller's pin. hit reports whether the plan was served without a
// pilot run. ctx bounds the planning wait, so a cancelled query frees its
// slot instead of blocking on another query's plan build.
func planFor(ctx context.Context, c *plan.Cache, r, s rel.Relation, opt core.Options, w *plan.Workload, build *catalog.Entry) (pl *core.Plan, hit bool, err error) {
	if w == nil {
		m := plan.MeasureWorkload(r, s)
		w = &m
	}
	return c.GetOrBuild(ctx, plan.OfWorkload(r, s, opt, *w), func() (*core.Plan, error) {
		return build.BuildPlan(r, s, opt)
	})
}

// planRun is the one place a pairwise join is planned and executed: with a
// plan cache it plans first (planFor) and runs under the plan; a nil cache
// runs opt as given. build is r's entry when r is a registered slice (nil
// otherwise), whose kept pilot a cold plan and whose kept table the join
// may probe. A pair with an empty side joins to nothing: it is
// neither planned (the planner refuses empty relations) nor run, and
// reports a zero result. pl and hit report the planner's decision (nil,
// false when nothing was planned).
func planRun(ctx context.Context, c *plan.Cache, r, s rel.Relation, opt core.Options, w *plan.Workload, build *catalog.Entry) (res *core.Result, pl *core.Plan, hit bool, err error) {
	if r.Len() == 0 || s.Len() == 0 {
		return emptyResult(opt), nil, false, nil
	}
	if c != nil {
		if pl, hit, err = planFor(ctx, c, r, s, opt, w, build); err != nil {
			return nil, nil, false, fmt.Errorf("plan: %w", err)
		}
		opt.Plan = pl
	}
	res, err = build.Join(ctx, r, s, opt)
	return res, pl, hit, err
}

// planInfo reports a planner decision; nil when nothing was planned.
func planInfo(pl *core.Plan, hit bool) *PlanInfo {
	if pl == nil {
		return nil
	}
	return &PlanInfo{
		Algo:        pl.Algo.String(),
		Scheme:      pl.Scheme.String(),
		CacheHit:    hit,
		PredictedNS: pl.PredictedNS,
	}
}

// emptyResult is the zero result of a join with an empty side: no matches,
// no simulated time, labelled with the requested algorithm, scheme and
// architecture.
func emptyResult(opt core.Options) *core.Result {
	return &core.Result{Algo: opt.Algo, Scheme: opt.Scheme, Arch: opt.Arch}
}

// pairFn reports the memoized pair workload of two pipeline sources, or
// ok=false when either carries no ingest statistics (an inline source).
type pairFn func(build, probe *source) (w plan.Workload, ok bool)

// pipeOrder is a pipeline's chosen left-deep order with what mid-pipeline
// re-planning needs to revise it: the orderer's inputs and its per-step
// output estimates (nil unless ordered). replans counts the revisions.
type pipeOrder struct {
	order   []int
	ordered bool
	rels    []plan.PipeRel
	ests    []float64
	stats   plan.PairStats
	replans int64
}

// chooseOrder picks a pipeline's order once, from whole-relation
// statistics: the cost-based orderer's when every source is registered,
// declaration order on request or when any source is inline.
func chooseOrder(srcs []source, declared bool, pair pairFn) *pipeOrder {
	o := &pipeOrder{rels: make([]plan.PipeRel, len(srcs))}
	for i := range srcs {
		o.rels[i] = srcs[i].pipeRel()
	}
	if !declared {
		o.stats = func(i, j int) (plan.Workload, bool) { return pair(&srcs[i], &srcs[j]) }
	}
	o.order, o.ests, o.ordered = plan.OrderPipelineEst(o.rels, o.stats)
	return o
}

// replan is runChain's re-order hook. The orderer predicted step t's output
// when it chose the order; when the observation deviates beyond
// replanDeviation and at least two steps remain (one remaining step has no
// order to choose), the greedy tail re-runs anchored on the TRUE
// cardinality and the order is revised in place. Every input is a pure
// function of the data, so the decision — like the order itself — is
// identical for any worker count.
func (o *pipeOrder) replan(t int, matches int64) {
	if !o.ordered || len(o.order)-1-t < 2 || t-1 >= len(o.ests) {
		return
	}
	pred := o.ests[t-1]
	if math.Abs(float64(matches)-pred) <= replanDeviation*math.Max(pred, 1) {
		return
	}
	tail, ests, ok := plan.OrderRemaining(plan.PipeRel{Tuples: int(matches)}, o.rels, o.order[:t+1], o.order[t+1:], o.stats)
	if !ok {
		return
	}
	copy(o.order[t+1:], tail)
	copy(o.ests[t:], ests)
	o.replans++
}

// chain is one left-deep chain and what it runs against — the catalog its
// intermediates reserve in, its plan cache, its options and its residency
// budget — and, once it spills, the hybrid-hash spill executor of the rest
// (run, spill.go), with the spill accounting of every level below. Per
// executed step it keeps the pairwise result and, for a grid partition's
// chain, the planner decision it reports. Input cardinalities and
// intermediate totals follow from the steps (step t builds from step t-1's
// matches), so the chain keeps none of them. A chain is not safe for
// concurrent use: a spill level runs each partition's chain as a chain of
// its own and folds them back in partition order.
type chain struct {
	ctx context.Context
	cat *catalog.Catalog
	// cache is the plan cache the chain plans on (nil: it runs the plans of
	// its table, or else the base options).
	cache *plan.Cache
	opt   *core.Options
	// budget pre-checks every intermediate before it is produced: a grid
	// partition's share of the total budget less what is registered into
	// it, so which chains spill is a pure function of data and budget,
	// never of how partitions are packed into shards or of what concurrent
	// pipelines hold.
	budget int64

	// level is the repartitioning level a spill starts at: the levels the
	// grid consumed (shard.Grid.Levels) for a grid partition's chain, one
	// past its parent's for a spilled partition's.
	level int
	// wFirst is the first step's registered pair workload (nil: plan from
	// the build side's key counts, or measure); runChain clears it once the
	// first step has read it.
	wFirst *plan.Workload
	// replan, when set, may re-order the steps after t (mid-pipeline
	// re-planning) given step t's exact matches. Only a chain that sees
	// global cardinalities gets one; partition chains never re-order: the
	// global order is part of the merge contract.
	replan func(t int, matches int64)

	// plans is the spill point's plan table, entry t-1 for step t (nil: the
	// query is not auto-planned). A chain with a cache writes the plan each
	// step ran (nil: none) and a spill below it hands on the table's tail;
	// a chain without one runs each entry.
	plans []*core.Plan
	steps []*core.Result
	// infos, when non-nil, collects each step's planner decision (nil for
	// an empty-side step and for the steps the spill executor ran): a grid
	// partition's chain reports them.
	infos []*PlanInfo
	// spilled is the first step the spill executor ran (nil: the chain ran
	// whole).
	spilled *core.Result

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

// add appends one step and, when the chain reports them, its planner
// decision.
func (c *chain) add(r *core.Result, pl *core.Plan, hit bool) {
	c.steps = append(c.steps, r)
	if c.infos != nil {
		c.infos = append(c.infos, planInfo(pl, hit))
	}
}

// runChain executes in[order[0]] ⋈ in[order[1]] ⋈ … as a chain of pairwise
// joins and appends every step to c. It is the one loop that chains
// pairwise steps: a grid partition's chain runs here, and so does every
// partition chain a spill level starts.
//
// Before a non-final step runs, its probe keys are looked up in its build
// side's key counts once, on the pool (core.Multiplicities): the total is
// the exact intermediate size. One the budget cannot hold hands the
// remaining chain to c's spill executor (run) at c.level without running
// the step. One that fits is produced morsel-parallel from the same
// per-tuple multiplicities (core.StreamFill, no second lookup) straight
// into the buffer the next step builds from — recycler slabs this chain
// hands back — reserved through c.reserve and returned once the consumer
// step has run, so a chain holds at most one intermediate and never names,
// pins or indexes it.
//
// counts is a key → multiplicity table covering in[order[0]]'s keys at
// their counts in it, when the caller holds one (a registered source's
// ingest table, or the spill point's table a spilled partition was split
// from: partitions split by key), and known in[order[1]]'s multiplicities
// against it when the caller holds those too (a spilled partition's); both
// stay the caller's. A spill hands counts on to run. The first
// pre-check reads known's total and the first hand-off fills from it. A
// table or multiplicities not in hand the chain derives when the step
// hands an intermediate on (the last step needs none) and releases after
// the hand-off. A step whose build counts are in hand plans from them
// (plan.CountsWorkload — the measured workload by construction); the first
// step prefers wFirst. A chain with a cache writes each step's plan into
// its table; a spill passes the table's tail on to run, where the spill
// level's leader writes through it and its other chains read it. A chain
// with a table but no cache (a follower partition chain) plans nothing on
// the cache: each step runs its table's plan, and a non-empty step whose
// entry is nil (its leader ran it empty or streamed it) plans alone,
// outside the cache.
//
// A step with an empty side joins to nothing: it is neither planned (the
// planner refuses empty relations) nor run, reports a zero result, and its
// empty intermediate flows on. Emptiness depends only on the data (and the
// fixed grid), so the skip is deterministic.
func (c *chain) runChain(in []rel.Relation, order []int, counts rel.Counts, known core.Mults) error {
	n := len(order)
	// reserved (phys of it charged) backs cur and inter is cur once this
	// chain produced it; own and ownMult are counts and known once this
	// chain derived them. All are handed back after the consumer step has
	// run, or on exit.
	var reserved, phys int64
	var inter rel.Relation
	var own rel.Counts
	var ownMult core.Mults
	defer func() {
		c.unreserve(reserved, phys)
		own.Release()
		ownMult.Release()
		inter.Release()
	}()

	cur := in[order[0]]
	for t := 1; t < n; t++ {
		probe := in[order[t]]
		fail := func(err error) error { return fmt.Errorf("step %d: %w", t, err) }
		// A cancelled query starts no further step, here or in any other
		// partition chain of its fan-out.
		if err := c.ctx.Err(); err != nil {
			return fail(err)
		}
		empty := cur.Len() == 0 || probe.Len() == 0
		last := t == n-1
		var matches int64
		if !last {
			if !empty {
				if counts.Len() == 0 {
					own = rel.KeyCounts(cur)
					counts = own
				}
				if known.Of == nil {
					ownMult = core.Multiplicities(c.opt.Pool, counts, probe.Keys)
					known = ownMult
				}
				if matches = known.Total; matches > math.MaxInt32 {
					return fail(fmt.Errorf("intermediate of %d tuples exceeds the representable relation size", matches))
				}
			}
			if c.replan != nil {
				c.replan(t, matches)
			}
			if matches*8 > c.budget {
				// cur's reservation returns first, as at every hand-off; its
				// slabs stay until run has partitioned it.
				c.unreserve(reserved, phys)
				reserved, phys = 0, 0
				// The remaining steps' entries of the table (nil stays nil).
				if err := c.run(cur, in, order[t:], counts, c.plans[min(t-1, len(c.plans)):]); err != nil {
					return fail(fmt.Errorf("spill: %w", err))
				}
				return nil
			}
		}

		opt, w := *c.opt, c.wFirst // the first step's workload alone
		c.wFirst = nil
		if c.cache == nil && c.plans != nil && !empty {
			// A follower runs its leader's plan: no pilot, no fingerprint, no
			// lookup. A step its leader ran empty or streamed it plans alone,
			// outside the plan cache.
			if opt.Plan = c.plans[t-1]; opt.Plan == nil {
				pl, err := core.BuildPlan(cur, probe, opt)
				if err != nil {
					return fail(fmt.Errorf("plan: %w", err))
				}
				opt.Plan = pl
			}
		} else if w == nil && c.cache != nil && counts.Len() > 0 {
			cw := plan.CountsWorkload(counts, probe)
			w = &cw
		}
		stepRes, pl, hit, err := planRun(c.ctx, c.cache, cur, probe, opt, w, nil)
		if err != nil {
			return fail(err)
		}
		if c.cache != nil {
			c.plans[t-1] = pl
		}
		c.add(stepRes, pl, hit)
		if last {
			break
		}

		// The finished step's build side has served its consumer: its
		// reservation is returned before the next intermediate reserves.
		c.unreserve(reserved, phys)
		reserved = matches * 8
		phys = c.reserve(reserved)
		// An empty step's known is zero or all zeros: it fills nothing.
		next := core.StreamFill(c.opt.Pool, probe, known.Of)
		own.Release()
		ownMult.Release()
		counts, known = rel.Counts{}, core.Mults{}
		inter.Release()
		cur, inter = next, next
		if int64(next.Len()) != stepRes.Matches {
			return fail(fmt.Errorf("streamed %d tuples but the join counted %d — engine bug", next.Len(), stepRes.Matches))
		}
	}
	return nil
}
