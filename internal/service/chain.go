package service

import (
	"context"
	"errors"
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
// from a measured one. hit reports whether the plan was served without a
// pilot run. ctx bounds the planning wait, so a cancelled query frees its
// slot instead of blocking on another query's plan build.
func planFor(ctx context.Context, p *plan.Planner, r, s rel.Relation, opt core.Options, w *plan.Workload) (pl *core.Plan, hit bool, err error) {
	if w != nil {
		pl, _, hit, err = p.PlanWorkload(ctx, r, s, opt, *w)
	} else {
		pl, _, hit, err = p.Plan(ctx, r, s, opt)
	}
	return pl, hit, err
}

// planRun is the one place a pairwise join is planned and executed: with a
// planner it plans first (planFor) and runs under the plan; a nil planner
// runs opt as given. pl and hit report the planner's decision (nil, false
// when nothing was planned).
func planRun(ctx context.Context, p *plan.Planner, r, s rel.Relation, opt core.Options, w *plan.Workload) (res *core.Result, pl *core.Plan, hit bool, err error) {
	if p != nil {
		if pl, hit, err = planFor(ctx, p, r, s, opt, w); err != nil {
			return nil, nil, false, fmt.Errorf("plan: %w", err)
		}
		opt.Plan = pl
	}
	res, err = core.RunCtx(ctx, r, s, opt)
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

// firstWorkload is the first step's pair workload when both of its
// inputs are registered (nil otherwise: the planner measures). Later steps
// build from intermediates and are always measured.
func firstWorkload(srcs []pipeSource, order []int, pair pairFn) *plan.Workload {
	if w, ok := pair(&srcs[order[0]], &srcs[order[1]]); ok {
		return &w
	}
	return nil
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

// stepLabels names step t's inputs: the first source (or the previous
// step's intermediate) and the probing source.
func stepLabels(srcs []pipeSource, order []int, t int) (build, probe string) {
	build = srcs[order[0]].name
	if t > 1 {
		build = fmt.Sprintf("step%d", t-1)
	}
	return build, srcs[order[t]].name
}

// chainEnv is what one left-deep chain runs against: the in-process backend
// runs one chain per grid partition over that partition's slices — a single
// chain over the whole relations on an unsharded engine.
type chainEnv struct {
	// cat is the catalog streamed intermediates reserve against.
	cat *catalog.Catalog
	// planner plans each step; nil runs every step under the base options.
	planner *plan.Planner
	// wFirst is the first step's registered pair workload (nil: measure).
	wFirst *plan.Workload
	// budget pre-checks an intermediate before physical space is asked for:
	// a grid partition's share of the total budget less what is registered
	// into it, so that which chains spill is a pure function of data and
	// budget, never of how partitions are packed into shards or of which
	// concurrent pipeline reserved first.
	budget int64
	// level is the repartitioning level a spill starts at: the levels the
	// grid itself consumed (shard.Grid.Levels).
	level int
	// replan, when set, may re-order the steps after t (mid-pipeline
	// re-planning) given step t's observed matches. Only a chain that sees
	// global cardinalities gets one; partition chains never re-order: the
	// global order is part of the merge contract.
	replan func(t int, matches int64)
}

// chain is one executed left-deep chain: per step the pairwise result, the
// input cardinalities and the planner's decision (nil for a skipped
// empty-side step and for steps the spiller ran), then the chain's
// intermediate totals, resident peak and deepest spill level.
type chain struct {
	steps                    []*core.Result
	buildTuples, probeTuples []int
	plans                    []*PlanInfo
	interTuples, interBytes  int64
	peak                     int64
	spillDepth               int
}

// runChain executes in[order[0]] ⋈ in[order[1]] ⋈ … as a chain of pairwise
// joins, streaming each non-final step's matches into the next step's
// build input.
//
// The hand-off never goes through the catalog's namespace: the matches are
// produced morsel-parallel (core.StreamMaterialize) directly into the
// buffer the next step builds from — recycler slabs this chain hands back
// — their relation bytes reserved transiently against env.cat and returned
// once the consumer step has run: at most one intermediate is reserved and
// no key index or sample is ever built for it. An
// intermediate the budget cannot hold — known exactly, before anything is
// allocated — hands the rest of the chain to the hybrid-hash spiller.
//
// A step with an empty side joins to nothing: it is neither planned (the
// planner refuses empty relations) nor run, reports a zero result, and its
// empty intermediate flows on. Emptiness depends only on the data (and the
// fixed grid), so the skip is deterministic.
func runChain(ctx context.Context, env *chainEnv, names []string, in []rel.Relation, order []int, opt core.Options) (*chain, error) {
	n := len(order)
	c := &chain{
		steps:       make([]*core.Result, 0, n-1),
		buildTuples: make([]int, 0, n-1),
		probeTuples: make([]int, 0, n-1),
		plans:       make([]*PlanInfo, 0, n-1),
	}
	// reserved is the live reservation backing the current intermediate,
	// returned when its consumer step is done with it or on exit.
	var reserved int64
	// inter is cur when this chain produced it: recycler slabs, handed back
	// once the consumer step has run and the next intermediate is produced.
	var inter rel.Relation
	defer func() {
		env.cat.Unreserve(reserved)
		core.ReleaseStreamed(inter)
	}()

	cur, curName := in[order[0]], names[order[0]]
	for t := 1; t < n; t++ {
		probe := in[order[t]]
		fail := func(err error) error {
			return fmt.Errorf("pipeline step %d (%s ⋈ %s): %w", t, curName, names[order[t]], err)
		}
		var stepRes *core.Result
		var pinfo *PlanInfo
		if cur.Len() == 0 || probe.Len() == 0 {
			stepRes = emptyResult(opt)
		} else {
			var w *plan.Workload
			if t == 1 {
				w = env.wFirst
			}
			res, pl, hit, err := planRun(ctx, env.planner, cur, probe, opt, w)
			if err != nil {
				return nil, fail(err)
			}
			stepRes, pinfo = res, planInfo(pl, hit)
		}
		c.steps = append(c.steps, stepRes)
		c.buildTuples = append(c.buildTuples, cur.Len())
		c.probeTuples = append(c.probeTuples, probe.Len())
		c.plans = append(c.plans, pinfo)
		if t == n-1 {
			break
		}
		if stepRes.Matches > math.MaxInt32 {
			return nil, fail(fmt.Errorf("intermediate of %d tuples exceeds the representable relation size", stepRes.Matches))
		}
		if env.replan != nil {
			env.replan(t, stepRes.Matches)
		}

		// The finished step's build side has served its consumer: a
		// transient cur's reservation is returned before the new
		// intermediate is reserved. Whether that one fits needs only the
		// step's match count.
		env.cat.Unreserve(reserved)
		reserved = 0
		bytes := stepRes.Matches * 8
		// Spill decision: against the budget share first, and only then
		// against physical space — which the share guarantees except under
		// concurrent overload, where the fallback still degrades gracefully
		// instead of failing.
		budget := env.budget
		spill := bytes > budget
		if !spill {
			if err := env.cat.Reserve(bytes); err != nil {
				if !errors.Is(err, catalog.ErrNoSpace) {
					return nil, fail(fmt.Errorf("intermediate of %d tuples: %w", stepRes.Matches, err))
				}
				spill = true
				if hr := env.cat.Headroom(); hr < budget {
					budget = hr
				}
			}
		}
		if spill {
			probes := make([]rel.Relation, 0, n-t)
			for _, i := range order[t:] {
				probes = append(probes, in[i])
			}
			if err := c.spill(ctx, env, cur, probes, opt, budget); err != nil {
				return nil, fail(fmt.Errorf("spill: %w", err))
			}
			return c, nil
		}
		reserved = bytes
		// The per-key state of cur is all the producer needs from it.
		counts := rel.KeyCounts(cur)
		next := core.StreamMaterialize(opt.Pool, counts, probe)
		counts.Release()
		core.ReleaseStreamed(inter)
		inter = next
		if int64(inter.Len()) != stepRes.Matches {
			return nil, fail(fmt.Errorf("streamed %d tuples but the join counted %d — engine bug", inter.Len(), stepRes.Matches))
		}
		if bytes > c.peak {
			c.peak = bytes
		}
		c.interTuples += int64(inter.Len())
		c.interBytes += inter.Bytes()
		cur, curName = inter, fmt.Sprintf("step%d", t)
	}
	return c, nil
}

// spill hands the chain from its last recorded step on to the hybrid-hash
// spiller: cur ⋈ probes… re-run partitioned under budget. The
// recorded step's result is replaced by the spiller's (merged over
// partitions, so the step keeps one Result) and — since the partitioned
// execution is what actually ran — its plan report is dropped with it;
// spilled steps carry no per-step plan. The simulated I/O the spill store
// charged attaches to the first spilled step.
func (c *chain) spill(ctx context.Context, env *chainEnv, cur rel.Relation, probes []rel.Relation, opt core.Options, budget int64) error {
	sp := &spiller{ctx: ctx, cat: env.cat, planner: env.planner, opt: opt, budget: budget}
	steps, err := sp.run(cur, probes, env.level)
	if err != nil {
		return err
	}
	steps[0].SpilledPartitions, steps[0].SpillBytes, steps[0].SpillNS = sp.parts, sp.bytes, sp.ns
	steps[0].TotalNS += sp.ns

	last := len(c.steps) - 1
	c.steps, c.plans = c.steps[:last], c.plans[:last]
	for i, r := range steps {
		c.steps = append(c.steps, r)
		c.plans = append(c.plans, nil)
		if i > 0 {
			c.buildTuples = append(c.buildTuples, int(steps[i-1].Matches))
			c.probeTuples = append(c.probeTuples, probes[i].Len())
		}
		if i < len(steps)-1 {
			c.interTuples += r.Matches
			c.interBytes += r.Matches * 8
		}
	}
	c.spillDepth = sp.depth
	if sp.peak > c.peak {
		c.peak = sp.peak
	}
	return nil
}
