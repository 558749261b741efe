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

// plannerIf returns p for an auto-planned query and nil — "run the options
// as given" — otherwise.
func plannerIf(auto bool, p *plan.Planner) *plan.Planner {
	if auto {
		return p
	}
	return nil
}

// planFor plans one pairwise join on p: from the registered pair's
// workload w when the caller has one (fingerprinting then reads neither relation), else
// from a measured one. build is r's entry when r is a registered slice (nil
// otherwise), whose kept pilot a cold plan probes (catalog.Entry.BuildPlan);
// the miss runs on the caller's goroutine, under the caller's pin. hit
// reports whether the plan was served without a pilot run. ctx bounds the
// planning wait, so a cancelled query frees its slot instead of blocking on
// another query's plan build.
func planFor(ctx context.Context, p *plan.Planner, r, s rel.Relation, opt core.Options, w *plan.Workload, build *catalog.Entry) (pl *core.Plan, hit bool, err error) {
	if w != nil {
		pl, _, hit, err = p.PlanWorkload(ctx, r, s, opt, *w, build.BuildPlan)
	} else {
		pl, _, hit, err = p.Plan(ctx, r, s, opt, build.BuildPlan)
	}
	return pl, hit, err
}

// planRun is the one place a pairwise join is planned and executed: with a
// planner it plans first (planFor) and runs under the plan; a nil planner
// runs opt as given. build is r's entry when r is a registered slice (nil
// otherwise), whose kept pilot a cold plan and whose kept table the join
// may probe. A pair with an empty side joins to nothing: it is
// neither planned (the planner refuses empty relations) nor run, and
// reports a zero result. pl and hit report the planner's decision (nil,
// false when nothing was planned).
func planRun(ctx context.Context, p *plan.Planner, r, s rel.Relation, opt core.Options, w *plan.Workload, build *catalog.Entry) (res *core.Result, pl *core.Plan, hit bool, err error) {
	if r.Len() == 0 || s.Len() == 0 {
		return emptyResult(opt), nil, false, nil
	}
	if p != nil {
		if pl, hit, err = planFor(ctx, p, r, s, opt, w, build); err != nil {
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
type pairFn func(build, probe *pipeSource) (w plan.Workload, ok bool)

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
func chooseOrder(srcs []pipeSource, declared bool, pair pairFn) *pipeOrder {
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

// chain is one left-deep chain: what it starts from and, per executed
// step, the pairwise result and the planner's decision (nil for an
// empty-side step and for steps the spiller ran). Input cardinalities and
// intermediate totals follow from the steps (step t builds from step t-1's
// matches), and the resident peak and spill depth from the spiller the
// chain ran against, so the chain keeps none of them.
type chain struct {
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

	// inherit, when non-nil, holds the plan of every step of a follower
	// partition chain: its leader's (nil: the leader planned none).
	inherit []*core.Plan

	steps []*core.Result
	// ran, when non-nil, records the plan each step ran (nil: none): a spill
	// level's leader chain keeps it for the level's other chains.
	ran []*core.Plan
	// plans is nil for a spilled partition's chain: no result reports its
	// planner decisions.
	plans []*PlanInfo
	// spilled is the first step the spiller ran (nil: the chain ran whole).
	spilled *core.Result
}

// add appends one step and, when the chain keeps them, the plan it ran and
// its planner decision.
func (c *chain) add(r *core.Result, pl *core.Plan, hit bool) {
	c.steps = append(c.steps, r)
	if c.ran != nil {
		c.ran = append(c.ran, pl)
	}
	if c.plans != nil {
		c.plans = append(c.plans, planInfo(pl, hit))
	}
}

// runChain executes in[order[0]] ⋈ in[order[1]] ⋈ … as a chain of pairwise
// joins and appends every step to c. It is the one loop that chains
// pairwise steps: a grid partition's chain runs here, and so does every
// partition chain the spiller starts.
//
// Before a non-final step runs, its probe keys are looked up in its build
// side's key counts once, on the pool (core.Multiplicities): the total is
// the exact intermediate size. One the budget cannot hold hands the
// remaining chain to the spiller at c.level without running the step. One
// that fits is produced morsel-parallel from the same per-tuple
// multiplicities (core.StreamFill, no second lookup) straight into the
// buffer the next step builds from — recycler slabs this chain hands back
// — reserved through sp.reserve and returned once the consumer step has
// run, so a chain holds at most one intermediate and never names, pins or
// indexes it.
//
// counts is a key → multiplicity table covering in[order[0]]'s keys at
// their counts in it, when the caller holds one (a registered source's
// ingest table, or the spill point's table a spilled partition was split
// from: partitions split by key), and known in[order[1]]'s multiplicities
// against it when the caller holds those too (a spilled partition's); both
// stay the caller's. A spill hands counts on to the spiller. The first
// pre-check reads known's total and the first hand-off fills from it. A
// table or multiplicities not in hand the chain derives when the step
// hands an intermediate on (the last step needs none) and releases after
// the hand-off. A step whose build counts are in hand plans from them
// (plan.CountsWorkload — the measured workload by construction); the first
// step prefers wFirst. A follower partition chain (c.inherit) plans
// nothing on the planner: each step runs its leader's plan for it.
//
// A step with an empty side joins to nothing: it is neither planned (the
// planner refuses empty relations) nor run, reports a zero result, and its
// empty intermediate flows on. Emptiness depends only on the data (and the
// fixed grid), so the skip is deterministic.
func (sp *spiller) runChain(c *chain, in []rel.Relation, order []int, counts rel.Counts, known core.Mults) error {
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
		sp.unreserve(reserved, phys)
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
		if err := sp.ctx.Err(); err != nil {
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
					ownMult = core.Multiplicities(sp.opt.Pool, counts, probe.Keys)
					known = ownMult
				}
				if matches = known.Total; matches > math.MaxInt32 {
					return fail(fmt.Errorf("intermediate of %d tuples exceeds the representable relation size", matches))
				}
			}
			if c.replan != nil {
				c.replan(t, matches)
			}
			if matches*8 > sp.budget {
				// cur's reservation returns first, as at every hand-off; its
				// slabs stay until the spiller has partitioned it.
				sp.unreserve(reserved, phys)
				reserved, phys = 0, 0
				probes := make([]rel.Relation, 0, n-t)
				for _, i := range order[t:] {
					probes = append(probes, in[i])
				}
				// A follower's remaining plans (nil stays nil).
				inherit := c.inherit[min(t-1, len(c.inherit)):]
				steps, plans, err := sp.run(cur, probes, counts, c.level, inherit)
				if err != nil {
					return fail(fmt.Errorf("spill: %w", err))
				}
				c.spilled = steps[0]
				for _, r := range steps {
					c.add(r, nil, false)
				}
				if c.ran != nil { // a leader's: the plans its spill's leader ran
					copy(c.ran[len(c.ran)-len(steps):], plans)
				}
				return nil
			}
		}

		opt, w := *sp.opt, c.wFirst // the first step's workload alone
		c.wFirst = nil
		if c.inherit != nil && !empty {
			// A follower runs its leader's plan: no pilot, no fingerprint, no
			// lookup. A step its leader ran empty or streamed it plans alone,
			// outside the plan cache.
			if opt.Plan = c.inherit[t-1]; opt.Plan == nil {
				pl, err := core.BuildPlan(cur, probe, opt)
				if err != nil {
					return fail(fmt.Errorf("plan: %w", err))
				}
				opt.Plan = pl
			}
		} else if w == nil && sp.planner != nil && counts.Len() > 0 {
			cw := plan.CountsWorkload(counts, probe)
			w = &cw
		}
		stepRes, pl, hit, err := planRun(sp.ctx, sp.planner, cur, probe, opt, w, nil)
		if err != nil {
			return fail(err)
		}
		c.add(stepRes, pl, hit)
		if last {
			break
		}

		// The finished step's build side has served its consumer: its
		// reservation is returned before the next intermediate reserves.
		sp.unreserve(reserved, phys)
		reserved = matches * 8
		phys = sp.reserve(reserved)
		// An empty step's known is zero or all zeros: it fills nothing.
		next := core.StreamFill(sp.opt.Pool, probe, known.Of)
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
