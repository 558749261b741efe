package plan

import (
	"container/list"
	"context"
	"errors"

	"apujoin/internal/core"
)

// errMiss ends a chain planning on a view at its first lookup the cache
// cannot serve from a resident entry; FanOut runs the chain again in turn.
var errMiss = errors.New("plan: a fan-out chain missed before its turn")

// hit is one lookup a view served from the cache: the entry it found and
// the plan the entry held.
type hit struct {
	el *list.Element
	pl *core.Plan
}

// FanOut runs n chains that plan on p concurrently while every planner
// decision stays what running them one after another, in index order,
// makes it: the plan each lookup returns, whether it hit, and what the
// cache holds afterwards, LRU order and counters included. It runs two
// passes.
//
//   - Concurrent: each(n, fn) calls fn(i) for every chain at once and
//     returns when all have returned (a pool's ForEach). Chain 0 plans on
//     p. Every other chain plans on a view that serves resident plans and
//     records each hit without applying it, and ends with errMiss at its
//     first miss.
//   - In order: chain by chain, a view's recorded hits are applied, each
//     checked to be still the entry it found. A chain that missed, or whose
//     hits went stale (a lower chain's insert evicted one), runs again on p,
//     where every lookup goes to the cache as in sequence. The first chain
//     that fails ends the pass: in sequence the higher chains would not
//     have run, so their hits are never applied.
//
// run(i, pl) runs chain i planning on pl; when it runs again it must
// replace everything the first run produced. FanOut returns the lowest
// failing chain and its error. Fan-outs nest: on a view, the in-order pass
// appends the inner chains' hits to the view's record, and an inner miss
// ends the outer chain with errMiss, so it runs again in its own turn. On
// a nil planner the chains share nothing and each runs once.
func (p *Planner) FanOut(n int, each func(n int, fn func(i int)), run func(i int, pl *Planner) error) (failed int, err error) {
	errs := make([]error, n)
	views := make([]Planner, n)
	each(n, func(i int) {
		pl := p
		if i > 0 && p != nil {
			views[i] = Planner{cache: p.cache, view: true}
			views[i].hits = views[i].buf[:0]
			pl = &views[i]
		}
		errs[i] = run(i, pl)
	})
	for i, err := range errs {
		if i > 0 && p != nil && (errors.Is(err, errMiss) || !p.apply(views[i].hits)) {
			err = run(i, p)
		}
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// lookup returns the plan for fp, building it on a miss; a view serves
// resident plans only and records the hits.
func (p *Planner) lookup(ctx context.Context, fp Fingerprint, build func() (*core.Plan, error)) (*core.Plan, bool, error) {
	if !p.view {
		return p.cache.GetOrBuild(ctx, fp, build)
	}
	el, pl, ok := p.cache.peek(fp)
	if !ok {
		return nil, false, errMiss
	}
	p.hits = append(p.hits, hit{el, pl})
	return pl, true, nil
}

// apply counts a chain's recorded hits, in order; false means they went
// stale. A view records them as its own.
func (p *Planner) apply(hits []hit) bool {
	if !p.view {
		return p.cache.apply(hits)
	}
	p.hits = append(p.hits, hits...)
	return true
}
