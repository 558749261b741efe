package service

import (
	"context"
	"fmt"
	"sync"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/cost"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
	"apujoin/internal/shard"
)

// localBackend keeps the partition slices in-process: one catalog holding
// the whole zero-copy budget, where partition p of a relation is the entry
// its record holds at entries[p], and one plan cache per grid partition.
// The catalog names nothing: the router's record is the only index of a
// registration's slices. The unsharded engine is this backend over a grid
// of one: one plan cache, and every relation stored whole as one entry.
type localBackend struct {
	// pool runs the partition fan-out (the service's resident pool).
	pool   *sched.Pool
	grid   shard.Grid
	cat    *catalog.Catalog
	caches []*plan.Cache

	// partBudget is each grid partition's even share of the catalog's
	// budget (total / grid size). The spill path triggers on it rather than
	// on the catalog's headroom: which partition chains spill — and
	// therefore every spilled number — is a pure function of the data and
	// the budget, never of what concurrent pipelines hold.
	partBudget int64

	mu sync.Mutex
	// partBytes tracks the registered relation bytes resident per grid
	// partition, backing partitionBudgets.
	partBytes []int64
}

// newLocalBackend builds the in-process tier from a service Config: the
// grid Config.Shards selects, one catalog holding all of CatalogBytes and
// one plan cache of Config.PlanCache entries per grid partition.
func newLocalBackend(cfg Config, pool *sched.Pool) *localBackend {
	grid := shard.GridFor(cfg.Shards)
	total := cfg.CatalogBytes
	if total <= 0 {
		total = catalog.DefaultCapacity
	}
	b := &localBackend{
		pool:       pool,
		grid:       grid,
		cat:        catalog.New(total),
		caches:     make([]*plan.Cache, grid),
		partBudget: total / int64(grid),
		partBytes:  make([]int64, grid),
	}
	for p := range b.caches {
		b.caches[p] = plan.NewCache(cfg.PlanCache)
	}
	return b
}

// place loads each slice into the catalog and writes the slices and their
// entries onto the record. A slice the budget cannot hold rolls the others
// back and the placement fails with the catalog's ErrNoSpace, naming the
// relation — no bytes and no gauges left behind.
func (b *localBackend) place(sr *shardedRel, parts []rel.Relation) error {
	entries := make([]*catalog.Entry, len(parts))
	for p := range parts {
		e, err := b.cat.Load(parts[p])
		if err != nil {
			for _, e := range entries[:p] {
				b.cat.Drop(e) //nolint:errcheck // just loaded
			}
			return fmt.Errorf("register %q: %w", sr.name, err)
		}
		entries[p] = e
	}
	sr.parts, sr.entries = parts, entries
	b.mu.Lock()
	for p := range parts {
		b.partBytes[p] += parts[p].Bytes()
	}
	b.mu.Unlock()
	return nil
}

// remove drops every partition entry of the record — each one's bytes free
// when its last pin drains — and unwinds the partition gauges.
func (b *localBackend) remove(sr *shardedRel) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for p, e := range sr.entries {
		freed, _ := b.cat.Drop(e) // dropped before: nothing was freed
		b.partBytes[p] -= freed
	}
}

// split splits one inline source over the grid; the scratch slab its parts
// are cut from goes back with the query (release).
func (b *localBackend) split(src *source, r rel.Relation) {
	src.parts, src.slab = b.grid.SplitScratch(b.pool, r)
}

// bindJoin materializes a generator spec and splits the inline sides.
func (b *localBackend) bindJoin(j *joinJob, sp JoinSpec) error {
	if sp.Gen != nil {
		sp.R, sp.S = sp.Gen.relations()
	}
	if sp.RName == "" {
		b.split(&j.in[0], sp.R)
	}
	if sp.SName == "" {
		b.split(&j.in[1], sp.S)
	}
	return nil
}

// bindPipeline materializes each inline source's generator spec and splits
// the inline sources.
func (b *localBackend) bindPipeline(j *pipeJob, sp PipelineSpec) error {
	for i, in := range sp.Sources {
		if in.Name != "" {
			continue
		}
		if in.Gen != nil {
			in.Rel = in.Gen.Build()
		}
		b.split(&j.sources[i], in.Rel)
	}
	return nil
}

// planWhole plans a whole-relation join that runs outside the grid (an
// external join) on partition 0's plan cache — on an unsharded engine, the
// cache every join plans on.
func (b *localBackend) planWhole(ctx context.Context, r, s rel.Relation, opt core.Options, w *plan.Workload) (*core.Plan, bool, error) {
	return planFor(ctx, b.caches[0], r, s, opt, w, nil)
}

// partitionBudgets returns every partition's residency budget for
// transient pipeline intermediates: its even share of the catalog's budget
// minus the relation bytes registered into it — over a grid of one, the
// capacity less everything registered. The spill path compares
// intermediates against these — a pure function of the registered data and
// the budget — so spill decisions are identical for any worker count and
// any concurrent interleaving. They are read in one snapshot when a
// pipeline starts, so a Drop while its partition chains run moves no
// chain's budget. Summed over the grid the thresholds never exceed the
// catalog's free capacity, which is what makes them physically honorable.
func (b *localBackend) partitionBudgets() (free [shard.Partitions]int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for p := range int(b.grid) {
		free[p] = max(b.partBudget-b.partBytes[p], 0)
	}
	return free
}

// runJoin runs every partition's sub-join on the pool (a grid of one runs
// inline on the caller). A partition with an empty side joins to nothing:
// it skips planning (the planner refuses empty relations) and execution and
// contributes a zero result — which partitions are empty depends only on
// the keys and the grid. Planning (auto) happens inside the fan-out on the
// partition's own plan cache, and the job's full-relation workload
// (registered pairs) stands in for measuring the slice.
func (b *localBackend) runJoin(ctx context.Context, j *joinJob) ([]*core.Result, []*PlanInfo, error) {
	parts := make([]*core.Result, b.grid)
	plans := make([]*PlanInfo, b.grid)
	err := runPartitions(b.pool, int(b.grid), func(p int) error {
		var cache *plan.Cache // nil: run the options as given
		if j.auto {
			cache = b.caches[p]
		}
		var build *catalog.Entry // an inline build side: none to keep a table on
		if r := j.in[0].rec; r != nil {
			build = r.entries[p]
		}
		res, pl, hit, err := planRun(ctx, cache, j.in[0].parts[p], j.in[1].parts[p], j.opt, j.workload, build)
		parts[p], plans[p] = res, planInfo(pl, hit)
		return err
	})
	return parts, plans, err
}

// runPartitions runs fn once per partition, concurrently on the pool, and
// returns the lowest failing partition's error: deterministic whatever
// order the partitions finished in. A single partition runs on the caller,
// with nothing to dispatch or allocate, and has no partition to name.
func runPartitions(pool *sched.Pool, n int, fn func(p int) error) error {
	if n == 1 {
		return fn(0)
	}
	var errs [shard.Partitions]error
	pool.ForEach(n, func(p int) { errs[p] = fn(p) })
	for p, err := range errs[:n] {
		if err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	return nil
}

// runPipeline runs the whole chain once per grid partition, concurrently on
// the pool, each over that partition's slice of every source, as a chain of
// its own — reservations against the catalog, spill decisions against the
// partition's budget share, plans on the partition's cache into a plan
// table of its own when auto — and writes each chain into
// its column of the per-partition transport. Only the chain of a grid of
// one sees global cardinalities, so only it may revise the job's order
// mid-pipeline; partition chains execute the order as resolved — it is part
// of their merge contract.
//
// A registered first source hands every chain its ingest-time count table
// (catalog.IngestStats.Counts, read from the record bind resolved with the
// pins, so it counts exactly the pinned slices): grid partitions split by
// key, so for every probe key of partition p the whole relation's count is
// its slice's, and one rule serves every grid. The table is shared, never
// released here; an inline first source has none and its chains count
// their slices.
func (b *localBackend) runPipeline(ctx context.Context, j *pipeJob) (*PipelinePartitions, error) {
	n, grid := len(j.sources), int(b.grid)
	in := make([]rel.Relation, n*grid)
	for i := range j.sources {
		for p, r := range j.sources[i].parts {
			in[p*n+i] = r
		}
	}
	order := j.order.order
	var first rel.Counts
	if rec := j.sources[order[0]].rec; rec != nil {
		first = rec.stats.Counts
	}
	pp := newPipelinePartitions(n-1, grid)
	budgets := b.partitionBudgets()
	err := runPartitions(b.pool, grid, func(p int) error {
		c := &chain{ctx: ctx, cat: b.cat, opt: &j.opt, budget: budgets[p], level: b.grid.Levels(), wFirst: j.wFirst,
			steps: make([]*core.Result, 0, n-1), infos: make([]*PlanInfo, 0, n-1)}
		if j.auto {
			c.cache, c.plans = b.caches[p], make([]*core.Plan, n-1)
		}
		if b.grid.Whole() {
			c.replan = j.order.replan
		}
		in := in[p*n : (p+1)*n]
		if err := c.runChain(in, order, first, core.Mults{}); err != nil {
			return err
		}
		// The spill I/O of every level the chain's spill reached attaches to
		// the first spilled step of the grid partition's chain alone: merged
		// partition chains would count it again.
		if s := c.spilled; s != nil {
			for _, b := range c.spills {
				s.SpilledPartitions++
				s.SpillBytes += b
				s.SpillNS += cost.SpillRoundTripNS(b)
			}
			s.TotalNS += s.SpillNS
		}
		for t, r := range c.steps {
			pp.Steps[t][p], pp.Plans[t][p] = r, c.infos[t]
		}
		pp.Peak[p], pp.SpillDepth[p] = c.peak, c.depth
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return pp, nil
}

// stats folds in the per-partition plan caches' counters and replaces
// the logical byte total with the catalog's physical gauges: bytes (a
// relation's partition entries and any reservations), capacity, peak and
// the kept build records.
func (b *localBackend) stats(st *Stats) {
	for _, c := range b.caches {
		cs := c.Stats()
		st.PlanHits += cs.Hits
		st.PlanMisses += cs.Misses
		st.PlanEvictions += cs.Evictions
		st.PlanEntries += cs.Entries
	}
	cs := b.cat.Stats()
	st.Catalog.Bytes = cs.Bytes
	st.Catalog.Capacity = cs.Capacity
	st.Catalog.PeakBytes = cs.PeakBytes
	st.Catalog.BuildRecordBytes = cs.BuildRecordBytes
	st.Catalog.BuildRecordHits = cs.BuildRecordHits
	st.Catalog.BuildRecordMisses = cs.BuildRecordMisses
}

func (b *localBackend) close() {}
