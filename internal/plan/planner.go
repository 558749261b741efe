package plan

import (
	"context"

	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// Planner pairs the fingerprint function with a plan cache: the unit the
// service layer owns and every auto-planned query consults.
type Planner struct {
	cache *Cache
}

// New returns a planner over a fresh cache of the given capacity
// (<= 0 selects DefaultCacheCapacity).
func New(capacity int) *Planner {
	return &Planner{cache: NewCache(capacity)}
}

// BuildFunc builds the plan of a workload on a cache miss: core.BuildPlan,
// or a registered build side's catalog.Entry.BuildPlan, which probes the
// pilot the entry keeps. Either returns core.BuildPlan's plan.
type BuildFunc func(r, s rel.Relation, opt core.Options) (*core.Plan, error)

// Plan returns the execution plan for the workload: the cached plan when
// the fingerprint is resident (no pilot, no searches), otherwise the plan
// build constructs, which is cached before returning. hit reports whether
// this call avoided the build (resident entry or coalesced onto a
// concurrent identical miss). ctx bounds the caller's wait — see
// Cache.GetOrBuild for the exact cancellation semantics.
func (p *Planner) Plan(ctx context.Context, r, s rel.Relation, opt core.Options, build BuildFunc) (pl *core.Plan, fp Fingerprint, hit bool, err error) {
	return p.PlanWorkload(ctx, r, s, opt, MeasureWorkload(r, s), build)
}

// PlanWorkload is Plan with the workload's skew/selectivity buckets
// supplied by the caller instead of measured here — the relation catalog's
// path, where the buckets were computed once at ingest. A catalog-mediated
// query therefore fingerprints without reading either relation.
func (p *Planner) PlanWorkload(ctx context.Context, r, s rel.Relation, opt core.Options, w Workload, build BuildFunc) (pl *core.Plan, fp Fingerprint, hit bool, err error) {
	fp = OfWorkload(r, s, opt, w)
	pl, hit, err = p.cache.GetOrBuild(ctx, fp, func() (*core.Plan, error) {
		return build(r, s, opt)
	})
	return pl, fp, hit, err
}

// Stats snapshots the underlying cache counters.
func (p *Planner) Stats() CacheStats { return p.cache.Stats() }
