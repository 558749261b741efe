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

// localBackend keeps the partition slices in-process: one catalog per
// shard with its own zero-copy budget, holding partition p of relation
// name as the entry partName(name, p), and one planner per grid partition.
// The unsharded engine is this backend over a grid of one: one catalog, one
// planner, and every relation stored whole under its own name.
type localBackend struct {
	// pool runs the partition fan-out (the service's resident pool).
	pool     *sched.Pool
	grid     shard.Grid
	catalogs []*catalog.Catalog
	// planners are per grid partition — NOT per shard — so each
	// partition's plan cache evolves identically for any shard count.
	planners []*plan.Planner

	// partBudget is the per-partition share of the TOTAL configured budget
	// (total / grid size, independent of the shard count). The spill
	// path triggers on it rather than on a shard catalog's physical
	// headroom: which partition chains spill — and therefore every spilled
	// number — must be a pure function of the data and the total budget,
	// never of how partitions happen to be packed into shards.
	partBudget int64

	mu sync.Mutex
	// partBytes tracks the registered relation bytes resident per grid
	// partition, backing partitionBudgets.
	partBytes []int64
}

// partName is the shard-catalog entry name of one partition of a
// relation. Shard catalogs are written only by the backend, so the suffix
// cannot collide with user registrations; a grid of one stores the relation
// under its own name.
func (b *localBackend) partName(name string, p int) string {
	if b.grid.Whole() {
		return name
	}
	return fmt.Sprintf("%s/p%d", name, p)
}

// newLocalBackend builds the in-process tier from a service Config: the
// grid Config.Shards selects, Shards shard catalogs (budget ShardBudget
// each, defaulting to an even split of CatalogBytes) — one catalog holding
// all of CatalogBytes when unsharded — and one planner per grid partition.
func newLocalBackend(cfg Config, pool *sched.Pool) *localBackend {
	grid := shard.GridFor(cfg.Shards)
	shards := shard.Clamp(cfg.Shards)
	budget := cfg.ShardBudget
	if budget <= 0 || grid.Whole() {
		total := cfg.CatalogBytes
		if total <= 0 {
			total = catalog.DefaultCapacity
		}
		budget = total / int64(shards)
	}
	b := &localBackend{
		pool:     pool,
		grid:     grid,
		catalogs: make([]*catalog.Catalog, shards),
		planners: make([]*plan.Planner, grid),
		// An even partition split of the total budget. With the default
		// even shard split this is total/grid for every shard count;
		// an explicit ShardBudget makes the total (and with it the spill
		// thresholds) a property of the configured topology.
		partBudget: budget * int64(shards) / int64(grid),
		partBytes:  make([]int64, grid),
	}
	for i := range b.catalogs {
		b.catalogs[i] = catalog.New(budget)
	}
	for p := range b.planners {
		b.planners[p] = plan.New(cfg.PlanCache)
	}
	return b
}

// catalogOf returns the shard catalog owning partition p.
func (b *localBackend) catalogOf(p int) *catalog.Catalog {
	return b.catalogs[shard.Owner(p, len(b.catalogs))]
}

// place loads each slice into its owning shard catalog. A shard whose
// budget cannot hold its partitions rolls the others back and the
// placement fails with the catalog's ErrNoSpace — no bytes, no names and
// no gauges left behind.
func (b *localBackend) place(name string, parts []rel.Relation, counts rel.Counts) error {
	for p := range parts {
		if err := b.catalogOf(p).Load(b.partName(name, p), parts[p], counts); err != nil {
			for q := 0; q < p; q++ {
				b.catalogOf(q).Drop(b.partName(name, q)) //nolint:errcheck // just loaded
			}
			return fmt.Errorf("shard %d: %w", shard.Owner(p, len(b.catalogs)), err)
		}
	}
	b.mu.Lock()
	for p := range parts {
		b.partBytes[p] += parts[p].Bytes()
	}
	b.mu.Unlock()
	return nil
}

// remove drops every partition entry from its shard catalog — each shard's
// bytes free when its last pin drains — and unwinds the partition gauges.
func (b *localBackend) remove(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for p := range int(b.grid) {
		freed, _ := b.catalogOf(p).Drop(b.partName(name, p)) // absent: nothing was freed
		b.partBytes[p] -= freed
	}
}

// pins reports the in-flight queries referencing a relation: every query
// pins all of its partition entries, so the count is any one partition's —
// the largest, since pins are taken and released one partition at a time.
func (b *localBackend) pins(name string) int {
	n := 0
	for p := range int(b.grid) {
		n = max(n, b.catalogOf(p).Pins(b.partName(name, p)))
	}
	return n
}

// partitions pins every partition entry of a placed relation, appending
// the entries — in partition order — to pins.
func (b *localBackend) partitions(name string, pins []*catalog.Entry) ([]rel.Relation, []*catalog.Entry, error) {
	base := len(pins)
	parts := make([]rel.Relation, b.grid)
	for p := range parts {
		e, err := b.catalogOf(p).Acquire(b.partName(name, p))
		if err != nil {
			releaseAll(pins[base:])
			return nil, pins[:base], fmt.Errorf("shard %d: %w", shard.Owner(p, len(b.catalogs)), err)
		}
		pins = append(pins, e)
		parts[p] = e.Relation()
	}
	return parts, pins, nil
}

// input resolves one job source to its per-partition slices: a registered
// relation's pinned entries, or an inline relation split on the spot into
// slabs that go back with the job's pins.
func (b *localBackend) input(name string, inline rel.Relation, pins []*catalog.Entry) ([]rel.Relation, []*catalog.Entry, error) {
	if name == "" {
		parts, scratch := b.grid.SplitScratch(b.pool, inline)
		if scratch.Len() > 0 {
			pins = append(pins, catalog.Scratch(scratch))
		}
		return parts, pins, nil
	}
	return b.partitions(name, pins)
}

// bindJoin materializes a generator spec, then pins or splits both sides.
func (b *localBackend) bindJoin(j *joinJob, sp JoinSpec) (pins []*catalog.Entry, err error) {
	if sp.Gen != nil {
		sp.R, sp.S = sp.Gen.relations()
	}
	pins = make([]*catalog.Entry, 0, 2*int(b.grid))
	if j.rParts, pins, err = b.input(sp.RName, sp.R, pins); err != nil {
		return nil, err
	}
	if j.sParts, pins, err = b.input(sp.SName, sp.S, pins); err != nil {
		releaseAll(pins)
		return nil, err
	}
	return pins, nil
}

// bindPipeline materializes each generator spec, then pins or splits every
// source. A registered source's count table comes from its pins, not from
// the router's record: a Drop and re-registration of the name after the
// router resolved it cannot pair one relation's table with another's
// slices.
func (b *localBackend) bindPipeline(j *pipeJob, sp PipelineSpec) (pins []*catalog.Entry, err error) {
	pins = make([]*catalog.Entry, 0, len(j.sources)*int(b.grid))
	for i, in := range sp.Sources {
		if in.Gen != nil {
			in.Rel = in.Gen.Build()
		}
		if j.sources[i].parts, pins, err = b.input(in.Name, in.Rel, pins); err != nil {
			releaseAll(pins)
			return nil, fmt.Errorf("pipeline source %d: %w", i+1, err)
		}
		if in.Name != "" {
			j.sources[i].counts = pins[len(pins)-1].Counts()
		}
	}
	return pins, nil
}

// planWhole plans a whole-relation join that runs outside the grid (an
// external join) on partition 0's planner — on an unsharded engine, the
// planner every join uses.
func (b *localBackend) planWhole(ctx context.Context, r, s rel.Relation, opt core.Options, w *plan.Workload) (*core.Plan, bool, error) {
	return planFor(ctx, b.planners[0], r, s, opt, w)
}

// partitionBudgets returns every partition's residency budget for
// transient pipeline intermediates: its even share of the total configured
// budget minus the relation bytes registered into it — over a grid of one,
// the capacity less everything registered. The spill path compares
// intermediates against these — a pure function of the registered data and
// the total budget — so spill decisions are identical for any shard count
// and any concurrent interleaving. They are read in one snapshot when a
// pipeline starts, so a Drop while its partition chains run moves no
// chain's budget. Summed over a shard's owned partitions the thresholds
// never exceed the shard catalog's free capacity, which is what makes the
// thresholds physically honorable.
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
// the keys and the grid, never the shard count. Planning (auto) happens
// inside the fan-out on the partition's own planner: the planner index is
// the grid partition, never the shard, and the job's full-relation workload
// (registered pairs) stands in for measuring the slice.
func (b *localBackend) runJoin(ctx context.Context, j *joinJob) ([]*core.Result, []*PlanInfo, error) {
	parts := make([]*core.Result, b.grid)
	plans := make([]*PlanInfo, b.grid)
	err := runPartitions(b.pool, int(b.grid), func(p int) error {
		res, pl, hit, err := planRun(ctx, plannerIf(j.auto, b.planners[p]), j.rParts[p], j.sParts[p], j.opt, j.workload)
		parts[p], plans[p] = res, planInfo(pl, hit)
		return err
	})
	return parts, plans, err
}

// runPartitions runs fn once per partition, concurrently on the pool, and
// returns the lowest failing partition's error: deterministic whatever
// order the partitions finished in. A single partition has no partition to
// name.
func runPartitions(pool *sched.Pool, n int, fn func(p int) error) error {
	for p, err := range sched.Collect(pool, n, fn) {
		if err != nil && n > 1 {
			return fmt.Errorf("partition %d: %w", p, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runPipeline runs the whole chain once per grid partition, concurrently on
// the pool, each over that partition's slice of every source, on its own
// spiller — reservations against the partition's owning shard catalog,
// spill decisions against its budget share — and writes each chain into
// its column of the per-partition transport. Only the chain of a grid of
// one sees global cardinalities, so only it may revise the job's order
// mid-pipeline; partition chains execute the order as resolved — it is part
// of their merge contract.
//
// A registered first source hands every chain its ingest-time count table
// (catalog.IngestStats.Counts, read from its pins): grid partitions split
// by key, so for every probe key of partition p the whole relation's count
// is its slice's, and one rule serves every grid. The table is shared,
// never released here; an inline first source has none and its chains
// count their slices.
func (b *localBackend) runPipeline(ctx context.Context, j *pipeJob) (*PipelinePartitions, error) {
	n, grid := len(j.sources), int(b.grid)
	in := make([]rel.Relation, n*grid)
	for i := range j.sources {
		for p, r := range j.sources[i].parts {
			in[p*n+i] = r
		}
	}
	order := j.order.order
	first := j.sources[order[0]].counts
	pp := newPipelinePartitions(n-1, grid)
	budgets := b.partitionBudgets()
	err := runPartitions(b.pool, grid, func(p int) error {
		sp := &spiller{ctx: ctx, cat: b.catalogOf(p), planner: plannerIf(j.auto, b.planners[p]), opt: &j.opt, budget: budgets[p]}
		c := &chain{level: b.grid.Levels(), wFirst: j.wFirst, steps: make([]*core.Result, 0, n-1), plans: make([]*PlanInfo, 0, n-1)}
		if b.grid.Whole() {
			c.replan = j.order.replan
		}
		in := in[p*n : (p+1)*n]
		if err := sp.runChain(c, in, order, first, core.Mults{}); err != nil {
			return err
		}
		// The spill I/O of every level the spiller reached attaches to the
		// first spilled step of the grid partition's chain alone: merged
		// partition chains would count it again.
		if s := c.spilled; s != nil {
			for _, b := range sp.spills {
				s.SpilledPartitions++
				s.SpillBytes += b
				s.SpillNS += cost.SpillRoundTripNS(b)
			}
			s.TotalNS += s.SpillNS
		}
		for t, r := range c.steps {
			pp.Steps[t][p], pp.Plans[t][p] = r, c.plans[t]
		}
		pp.Peak[p], pp.SpillDepth[p] = sp.peak, sp.depth
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return pp, nil
}

// stats folds in the per-partition planners' cache counters and replaces
// the logical byte total with the physical one: bytes, capacity and peak
// summed over the shard catalogs, whose own gauges follow in shard order —
// on a sharded service; an unsharded engine's one catalog is the aggregate.
func (b *localBackend) stats(st *Stats) {
	for _, p := range b.planners {
		cs := p.Stats()
		st.PlanHits += cs.Hits
		st.PlanMisses += cs.Misses
		st.PlanEvictions += cs.Evictions
		st.PlanEntries += cs.Entries
	}
	st.Catalog.Bytes = 0
	for _, c := range b.catalogs {
		cs := c.Stats()
		if st.Shards > 0 {
			st.ShardCatalogs = append(st.ShardCatalogs, cs)
		}
		st.Catalog.Bytes += cs.Bytes
		st.Catalog.Capacity += cs.Capacity
		st.Catalog.PeakBytes += cs.PeakBytes
	}
}

func (b *localBackend) close() {}
