package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/service/api"
	"apujoin/internal/shard"
)

// router is the stateless-routing tier of every service — unsharded,
// sharded in-process or clustered: relations register once and split over
// the engine's hash grid, joins and pipelines fan out to every partition
// and merge in partition order. The router owns everything logical exactly
// once — the namespace, each relation's provenance and full-relation ingest
// statistics, the memoized pair workloads, pipeline order and first-step
// workload, the fixed-order merge — and holds no tuple data. Where the
// partition slices live and how a partition job runs is the backend's
// business.
//
// The grid is shard.One on an unsharded engine — the split, the fan-out and
// the merge are then identities (see shard.Grid) and the one partition's
// numbers are the engine's — and shard.Partitions otherwise, where a
// cluster's server count decides placement and budget boundaries and
// nothing else: every computed number is a function of the grid, which is
// why results are bit-identical for any server count and any backend.
type router struct {
	b    backend
	grid shard.Grid

	mu   sync.Mutex
	rels map[string]*shardedRel
	// pending guards names with a registration or drop in flight: generation
	// and placement run outside the lock, and a concurrent duplicate must
	// fail with ErrExists before doing any work instead of racing them.
	pending   map[string]bool
	workloads map[routerPairKey]plan.Workload

	registered, dropped, reuses int64
}

// backend is what genuinely differs between an in-process sharded engine
// and a network cluster: where a relation's partition slices live and how
// one partition job runs. It never sees a logical relation record and
// never merges.
type backend interface {
	// place stores one relation's partition slices, all or nothing: after
	// a failure no slice of name remains anywhere. counts is the whole
	// relation's ingest table, which an in-process backend keeps beside
	// every slice so that a pin on the slices also holds their counts.
	place(name string, parts []rel.Relation, counts rel.Counts) error
	// remove drops a relation's slices; in-flight pins keep their data.
	remove(name string)
	// pins counts the in-flight pins on a relation's slices.
	pins(name string) int
	// partitions hands back a placed relation's slices in partition order,
	// pinned until the entries appended to pins are released — what
	// rebuilding a probe registration's base in original tuple order reads.
	partitions(name string, pins []*catalog.Entry) ([]rel.Relation, []*catalog.Entry, error)
	// bindJoin and bindPipeline attach the backend's form of a job's
	// inputs — pinned or split partition slices in-process, the wire
	// request on a cluster — and return the pins the query must release.
	bindJoin(j *joinJob, sp JoinSpec) ([]*catalog.Entry, error)
	bindPipeline(j *pipeJob, sp PipelineSpec) ([]*catalog.Entry, error)
	// runJoin runs one join on every grid partition and returns the raw
	// results, and the planner decisions it has, indexed by partition.
	runJoin(ctx context.Context, j *joinJob) ([]*core.Result, []*PlanInfo, error)
	// runPipeline runs one pipeline's chain, in the job's order, on every
	// grid partition and returns the raw per-partition transport.
	runPipeline(ctx context.Context, j *pipeJob) (*PipelinePartitions, error)
	// planWhole plans one whole-relation join outside the grid (external
	// joins), from the pair workload w when there is one.
	planWhole(ctx context.Context, r, s rel.Relation, opt core.Options, w *plan.Workload) (*core.Plan, bool, error)
	// stats folds the backend's physical gauges into st.
	stats(st *Stats)
	close()
}

// shardedRel is the router's record of one registered relation: the
// generation provenance (so probe relations can regenerate their build
// side in original tuple order) and the full-relation ingest statistics
// the planner fingerprints and the pipeline orderer consume — measured on
// the FULL relation whatever the grid, so a pair workload lands in the same
// plan-cache bucket on every engine shape. The tuple data itself lives with
// the backend.
type shardedRel struct {
	name    string
	source  catalog.Source
	created time.Time

	gen     rel.Gen
	probeOf string
	sel     float64

	// order records, for bulk-loaded relations split over more than one
	// partition, each original tuple position's grid partition (one byte per
	// tuple). The partition
	// split preserves within-partition relative order, so walking order
	// with per-partition cursors reassembles the exact original relation —
	// what a probe registration against a loaded build side needs. Written
	// once at register, immutable after.
	order []uint8

	tuples int
	stats  catalog.IngestStats

	joins int64
}

// routerPairKey identifies a memoized (build, probe) pair workload.
type routerPairKey struct{ r, s string }

func newRouter(b backend, grid shard.Grid) *router {
	return &router{
		b:         b,
		grid:      grid,
		rels:      make(map[string]*shardedRel),
		pending:   make(map[string]bool),
		workloads: make(map[routerPairKey]plan.Workload),
	}
}

// RegisterGen generates and registers a build relation from a spec.
func (t *router) RegisterGen(name string, g rel.Gen) (catalog.Info, error) {
	if err := t.precheck(name, g.N); err != nil {
		return catalog.Info{}, err
	}
	defer t.unpend(name)
	return t.register(&shardedRel{name: name, source: catalog.Generated, gen: g}, g.Build())
}

// RegisterProbe generates and registers a probe relation against the
// registered build relation of. The build side is read in original tuple
// order (fullRelation), so the probe is bit-identical to inline
// g.Probe(build, selectivity) on every grid.
func (t *router) RegisterProbe(name, of string, g rel.Gen, selectivity float64) (catalog.Info, error) {
	if err := t.precheck(name, g.N); err != nil {
		return catalog.Info{}, err
	}
	defer t.unpend(name)
	if selectivity < 0 || selectivity > 1 {
		return catalog.Info{}, fmt.Errorf("catalog: selectivity %v out of [0,1]", selectivity)
	}
	base, pins, err := t.fullRelation(of)
	if err != nil {
		return catalog.Info{}, fmt.Errorf("catalog: probe_of %q: %w", of, err)
	}
	defer releaseAll(pins)
	sr := &shardedRel{name: name, source: catalog.Probe, gen: g, probeOf: of, sel: selectivity}
	return t.register(sr, g.Probe(base, selectivity))
}

// Load registers an existing relation (bulk load) by its key column alone.
// A grid of one retains the caller's key column, which must not be mutated
// afterwards; a larger grid copies it into its per-partition relations.
func (t *router) Load(name string, r rel.Relation) (catalog.Info, error) {
	if err := t.precheck(name, r.Len()); err != nil {
		return catalog.Info{}, err
	}
	defer t.unpend(name)
	return t.register(&shardedRel{name: name, source: catalog.Loaded}, rel.Relation{Keys: r.Keys})
}

// precheck fails fast on an invalid or duplicate registration before any
// generation work and marks the name pending; the caller unpends when done.
func (t *router) precheck(name string, n int) error {
	if name == "" {
		return fmt.Errorf("catalog: empty relation name")
	}
	if n < 0 {
		return fmt.Errorf("catalog: negative relation size %d", n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rels[name]; ok {
		return fmt.Errorf("%w: %q", catalog.ErrExists, name)
	}
	if t.pending[name] {
		return fmt.Errorf("%w: %q (registration or drop in progress)", catalog.ErrExists, name)
	}
	t.pending[name] = true
	return nil
}

func (t *router) unpend(name string) {
	t.mu.Lock()
	delete(t.pending, name)
	t.mu.Unlock()
}

// fullRelation returns a registered relation in its original tuple order,
// with the pins (if any) the caller releases when done reading it. Probe
// generation indexes the build side by original position. A grid of one
// holds exactly that — the one resident slice is the relation — and it is
// read in place. A partition split does not preserve positions, so over a
// larger grid the router walks the provenance chain: generated bases
// regenerate from their stored specs, bulk-loaded bases reassemble from
// their partition slices via the ingest-time order map (see
// shardedRel.order), and probe links re-apply on top. Every route yields the
// same relation, bit for bit.
func (t *router) fullRelation(name string) (rel.Relation, []*catalog.Entry, error) {
	type link struct {
		gen rel.Gen
		sel float64
	}
	var chain []link
	var loaded *shardedRel
	t.mu.Lock()
	cur, ok := t.rels[name]
	if ok && t.grid.Whole() {
		parts, pins, err := t.b.partitions(name, nil)
		t.mu.Unlock()
		if err != nil {
			return rel.Relation{}, nil, err
		}
		return parts[0], pins, nil
	}
	for {
		if !ok {
			t.mu.Unlock()
			return rel.Relation{}, nil, fmt.Errorf("%w: %q", catalog.ErrNotFound, name)
		}
		if cur.source == catalog.Loaded {
			loaded = cur
			break
		}
		chain = append(chain, link{gen: cur.gen, sel: cur.sel})
		if cur.source == catalog.Generated {
			break
		}
		cur, ok = t.rels[cur.probeOf]
	}
	t.mu.Unlock()
	// Rebuild the base outside the lock (generation and reassembly are the
	// expensive part), then re-apply the probe chain on top.
	var r rel.Relation
	if loaded != nil {
		var err error
		if r, err = t.reassemble(loaded); err != nil {
			return rel.Relation{}, nil, err
		}
	} else {
		r = chain[len(chain)-1].gen.Build()
		chain = chain[:len(chain)-1]
	}
	for i := len(chain) - 1; i >= 0; i-- {
		r = chain[i].gen.Probe(r, chain[i].sel)
	}
	return r, nil, nil
}

// reassemble reconstructs a bulk-loaded relation in its original tuple
// order: pin every partition slice, then walk the ingest-time order map
// with one cursor per partition — the split preserves within-partition
// relative order, so tuple i is the next unconsumed tuple of its recorded
// partition.
func (t *router) reassemble(sr *shardedRel) (rel.Relation, error) {
	// Pinning under the lock, after re-checking the record: the slices read
	// below must be the ones sr.order was recorded against.
	t.mu.Lock()
	if t.rels[sr.name] != sr {
		t.mu.Unlock()
		return rel.Relation{}, fmt.Errorf("%w: %q", catalog.ErrNotFound, sr.name)
	}
	parts, pins, err := t.b.partitions(sr.name, nil)
	t.mu.Unlock()
	if err != nil {
		return rel.Relation{}, err
	}
	defer releaseAll(pins)
	out := rel.Relation{Keys: make([]int32, 0, len(sr.order))}
	cursors := make([]int, len(parts))
	for _, p := range sr.order {
		out.Keys = append(out.Keys, parts[p].Keys[cursors[p]])
		cursors[p]++
	}
	return out, nil
}

func releaseAll(pins []*catalog.Entry) {
	for _, e := range pins {
		e.Release()
	}
}

// register measures the full-relation ingest statistics, splits the
// relation over the grid, and places the slices with the backend — all or
// nothing. The caller holds the name pending, so nothing
// else can bind it meanwhile.
func (t *router) register(sr *shardedRel, full rel.Relation) (catalog.Info, error) {
	sr.tuples = full.Len()
	sr.stats = catalog.Measure(full)
	if sr.source == catalog.Loaded && !t.grid.Whole() {
		// Loaded relations have no spec to regenerate from, so the split's
		// inverse is recorded instead: each tuple's partition, one byte per
		// tuple, enough to reassemble the original order for probe
		// registrations against this relation.
		sr.order = make([]uint8, full.Len())
		for i, k := range full.Keys {
			sr.order[i] = uint8(t.grid.PartitionOf(k))
		}
	}
	if err := t.b.place(sr.name, t.grid.Split(full), sr.stats.Counts); err != nil {
		return catalog.Info{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sr.created = time.Now()
	t.rels[sr.name] = sr
	t.registered++
	return t.infoLocked(sr), nil
}

// Drop unregisters a relation: the name unbinds at once — no new query can
// resolve it, and its memoized pair workloads go with it — then the
// backend drops the slices, where in-flight queries keep their pins. The
// name stays pending until the slices are gone, so a re-registration
// cannot meet its predecessor's leftovers.
func (t *router) Drop(name string) (catalog.Info, error) {
	t.mu.Lock()
	sr, ok := t.rels[name]
	if !ok {
		t.mu.Unlock()
		return catalog.Info{}, fmt.Errorf("%w: %q", catalog.ErrNotFound, name)
	}
	info := t.infoLocked(sr)
	delete(t.rels, name)
	//apulint:ignore detmaporder(invalidation deletes a key set; the surviving map contents are the same whatever order the keys are visited in)
	for k := range t.workloads {
		if k.r == name || k.s == name {
			delete(t.workloads, k)
		}
	}
	t.dropped++
	t.pending[name] = true
	t.mu.Unlock()
	t.b.remove(name)
	t.unpend(name)
	return info, nil
}

// Get snapshots one registered relation.
func (t *router) Get(name string) (catalog.Info, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sr, ok := t.rels[name]
	if !ok {
		return catalog.Info{}, false
	}
	return t.infoLocked(sr), true
}

// List snapshots every registered relation, sorted by name.
func (t *router) List() []catalog.Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]catalog.Info, 0, len(t.rels))
	for _, sr := range t.rels {
		out = append(out, t.infoLocked(sr))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// infoLocked builds the logical (whole-relation) Info: global tuple count
// and statistics from the router record, pins from the backend.
func (t *router) infoLocked(sr *shardedRel) catalog.Info {
	info := catalog.Info{
		Name:       sr.name,
		Tuples:     sr.tuples,
		Bytes:      int64(sr.tuples) * 8,
		Source:     sr.source,
		SkewBucket: sr.stats.SkewBucket,
		HeavyShare: sr.stats.HeavyShare,
		Pins:       t.b.pins(sr.name),
		Joins:      sr.joins,
		Created:    sr.created,
	}
	if sr.source != catalog.Loaded {
		info.Dist = sr.gen.Dist.String()
		info.Seed = sr.gen.Seed
		info.KeyRange = sr.gen.KeyRange
	}
	if sr.source == catalog.Probe {
		info.ProbeOf = sr.probeOf
		info.Selectivity = sr.sel
	}
	return info
}

// lookup resolves each non-empty name to its record (recs[i] stays nil for
// an empty names[i]) and counts one join against every record found.
func (t *router) lookup(names []string, recs []*shardedRel) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, name := range names {
		if name == "" {
			continue
		}
		sr, ok := t.rels[name]
		if !ok {
			return fmt.Errorf("%w: %q", catalog.ErrNotFound, name)
		}
		recs[i] = sr
	}
	for _, sr := range recs {
		if sr != nil {
			sr.joins++
		}
	}
	return nil
}

// workload returns the planner workload buckets of the pair (build r,
// probe s) from the full-relation ingest statistics — the probe's stored
// key sample against the build's key count table — without scanning either
// relation. The result is memoized per pair and equals plan.MeasureWorkload
// on the same relations, so registered and inline queries share plan-cache
// entries.
func (t *router) workload(r, s *shardedRel) plan.Workload {
	if r.tuples == 0 || s.tuples == 0 {
		return plan.Workload{}
	}
	key := routerPairKey{r: r.name, s: s.name}
	t.mu.Lock()
	if w, ok := t.workloads[key]; ok {
		t.reuses++
		t.mu.Unlock()
		return w
	}
	t.mu.Unlock()

	w := plan.PairWorkload(s.stats.Sample, s.stats.SkewBucket, func(k int32) bool { return r.stats.Counts.Of(k) > 0 })

	t.mu.Lock()
	// Only memoize while both names still resolve to these records: a
	// concurrent drop must not be overwritten by a stale pair.
	if t.rels[r.name] == r && t.rels[s.name] == s {
		t.workloads[key] = w
	}
	t.mu.Unlock()
	return w
}

// recWorkload is the routed pairFn: the memoized pair workload of two
// registered sources.
func (t *router) recWorkload(build, probe *pipeSource) (plan.Workload, bool) {
	if build.rec == nil || probe.rec == nil {
		return plan.Workload{}, false
	}
	return t.workload(build.rec, probe.rec), true
}

// stats fills the catalog surface of st: the logical totals
// (relations counted once, whole-relation bytes), then the backend's
// physical gauges on top.
func (t *router) stats(st *Stats) {
	t.mu.Lock()
	st.Catalog = catalog.Stats{
		Relations:      len(t.rels),
		Registered:     t.registered,
		Dropped:        t.dropped,
		WorkloadReuses: t.reuses,
	}
	for _, sr := range t.rels {
		st.Catalog.Bytes += int64(sr.tuples) * 8
	}
	t.mu.Unlock()
	t.b.stats(st)
}

// joinJob is one resolved join: its options, the full-relation pair
// workload when both sides are registered (auto planning), and the
// backend's form of the inputs — both sides' per-partition slices
// in-process, the wire request on a cluster.
type joinJob struct {
	opt      core.Options
	auto     bool
	workload *plan.Workload
	// keep retains the raw per-partition results alongside the merge
	// (JoinSpec.KeepPartitions) — the cluster transport's raw material.
	keep bool

	rParts, sParts []rel.Relation
	// builds are a registered build side's per-partition entries, all nil
	// for an inline one: a partition's join over a registered build side
	// probes the table its entry keeps instead of building its own.
	builds []*catalog.Entry
	req    api.JoinRequest
}

// resolveJoin resolves a JoinSpec through the router: registered sides
// resolve to their records and — when the planner decides — carry the
// centrally measured pair workload; the backend binds the inputs. Mixed
// named/inline pairs are accepted in-process (the engine facade's
// contract); the HTTP layer enforces its own both-or-neither rule before
// submitting.
func (t *router) resolveJoin(sp JoinSpec) (resolvedSpec, error) {
	rs := resolvedSpec{auto: sp.Auto}
	var recs [2]*shardedRel
	if err := t.lookup([]string{sp.RName, sp.SName}, recs[:]); err != nil {
		return rs, err
	}
	job := &joinJob{opt: sp.Opt, auto: sp.Auto, keep: sp.KeepPartitions, workload: sp.Workload}
	var err error
	if rs.pins, err = t.b.bindJoin(job, sp); err != nil {
		return rs, err
	}
	if sp.Auto && job.workload == nil && recs[0] != nil && recs[1] != nil {
		w := t.workload(recs[0], recs[1])
		job.workload = &w
	}
	rs.join = job
	return rs, nil
}

// whole resolves a join's two sources to whole relations in original tuple
// order, with the pins the caller releases and — auto, both registered —
// the memoized pair workload. Inline relations are whole as they come (a
// generator is materialized here); a registered one is whole only where the
// grid keeps it in one piece.
func (t *router) whole(sp JoinSpec) (r, s rel.Relation, w *plan.Workload, pins []*catalog.Entry, err error) {
	if sp.RName == "" && sp.SName == "" {
		if sp.Gen != nil {
			sp.R, sp.S = sp.Gen.relations()
		}
		return sp.R, sp.S, sp.Workload, nil, nil
	}
	if !t.grid.Whole() {
		return r, s, nil, nil, errors.New("service: an external join does not accept catalog references on a sharded engine, which holds partition slices (resolve the data yourself and pass it inline)")
	}
	rs, err := t.resolveJoin(sp)
	if err != nil {
		return r, s, nil, nil, err
	}
	return rs.join.rParts[0], rs.join.sParts[0], rs.join.workload, rs.pins, nil
}

// execJoin fans one join out to every grid partition and merges the
// per-partition results in partition order. Equi-join matches never cross
// partitions, so the merged result — match count and every simulated
// number — equals the grid's and is bit-identical for any server count and
// any backend. parts is the raw per-partition vector, returned only when
// the job asked to keep it; pl aggregates the partitions' planner decisions
// (mergePlans).
func (t *router) execJoin(ctx context.Context, job *joinJob) (merged *core.Result, parts []*core.Result, pl *PlanInfo, err error) {
	parts, plans, err := t.b.runJoin(ctx, job)
	if err != nil {
		return nil, nil, nil, err
	}
	merged = t.grid.Merge(parts)
	if !job.keep {
		parts = nil
	}
	return merged, parts, mergePlans(plans), nil
}

// mergePlans aggregates the per-partition planner decisions of one join or
// pipeline step: representative algo/scheme from the lowest planned
// partition (all partitions of one step share a fingerprint shape, so they
// agree in practice), predicted time summed in partition order, cache_hit
// only when every planned partition hit. Partitions that planned nothing —
// an explicit query, an empty side, a spilled step — contribute nothing,
// and a vector without a plan reports none. Over one partition the
// aggregate is that partition's own report.
func mergePlans(plans []*PlanInfo) *PlanInfo {
	var out *PlanInfo
	for _, pi := range plans {
		if pi == nil {
			continue
		}
		if out == nil {
			out = &PlanInfo{Algo: pi.Algo, Scheme: pi.Scheme, CacheHit: true}
		}
		out.PredictedNS += pi.PredictedNS
		out.CacheHit = out.CacheHit && pi.CacheHit
	}
	return out
}

// resolvePipeline resolves a pipeline through the router: look the
// registered sources up, let the backend bind the inputs, then choose the
// left-deep order ONCE from the full-relation statistics — every partition
// (and every server) executes the same order — and capture the first
// step's pair workload for auto planning.
func (t *router) resolvePipeline(spec PipelineSpec) (resolvedSpec, error) {
	rs := resolvedSpec{auto: spec.Auto}
	if len(spec.Sources) < 2 {
		return rs, fmt.Errorf("%w (got %d)", ErrPipelineTooShort, len(spec.Sources))
	}
	names := make([]string, len(spec.Sources))
	for i, src := range spec.Sources {
		names[i] = src.Name
	}
	recs := make([]*shardedRel, len(names))
	if err := t.lookup(names, recs); err != nil {
		return rs, fmt.Errorf("pipeline source: %w", err)
	}
	pj := &pipeJob{
		opt:      spec.Opt,
		auto:     spec.Auto,
		sources:  make([]pipeSource, len(spec.Sources)),
		declared: spec.DeclaredOrder,
		keep:     spec.KeepPartitions,
		wFirst:   spec.FirstWorkload,
	}
	for i, src := range spec.Sources {
		in := &pj.sources[i]
		in.name, in.rec = src.Name, recs[i]
		switch {
		case in.rec != nil:
			in.tuples = in.rec.tuples
		case src.Gen != nil:
			in.name, in.tuples = fmt.Sprintf("inline[%d]", i), src.Gen.N
		default:
			in.name, in.tuples = fmt.Sprintf("inline[%d]", i), src.Rel.Len()
		}
	}
	var err error
	if rs.pins, err = t.b.bindPipeline(pj, spec); err != nil {
		return rs, err
	}
	pj.order = chooseOrder(pj.sources, pj.declared, t.recWorkload)
	// The first step plans from its pair workload when both of its inputs
	// are registered (otherwise the planner measures); later steps build
	// from intermediates and are always measured.
	if o := pj.order.order; spec.Auto && pj.wFirst == nil {
		if w, ok := t.recWorkload(&pj.sources[o[0]], &pj.sources[o[1]]); ok {
			pj.wFirst = &w
		}
	}
	rs.pipe = pj
	return rs, nil
}

// execPipeline runs a resolved pipeline on the backend and reassembles the
// global report from the raw per-partition transport: the chain decomposes
// exactly because every source is partitioned on the shared join key —
// step t of partition p only ever meets keys of partition p — so each
// step's results merge across partitions in fixed partition order, and a
// step's PlanInfo aggregates the per-partition planner decisions
// (mergePlans). The job's order is read after the run: the chain of a grid
// of one may have revised it in place, which Replans counts.
//
// Labels and tuple counts are global quantities, derived here rather than
// shipped: step 0 builds from order[0]'s whole relation and step t from
// step t-1's merged matches (labelled "step<t>"), step t probes with
// order[t+1]'s whole relation, and the intermediates are every step's
// matches but the last.
//
// PeakIntermediateBytes sums the per-partition chain peaks: the chains
// execute concurrently, so their peaks are simultaneous in the worst case,
// and the sum is a pure function of the grid (server-count invariant).
func (t *router) execPipeline(ctx context.Context, pj *pipeJob) (*PipelineResult, error) {
	pp, err := t.b.runPipeline(ctx, pj)
	if err != nil {
		return nil, err
	}
	res := &PipelineResult{Order: pj.order.order, Ordered: pj.order.ordered, Replans: pj.order.replans}
	first := &pj.sources[res.Order[0]]
	build, buildT := first.name, first.tuples
	for idx, parts := range pp.Steps {
		merged := t.grid.Merge(parts)
		probe := &pj.sources[res.Order[idx+1]]
		res.Steps = append(res.Steps, PipelineStep{
			Build:       build,
			Probe:       probe.name,
			BuildTuples: buildT,
			ProbeTuples: probe.tuples,
			OutTuples:   merged.Matches,
			Result:      merged,
			Plan:        mergePlans(pp.Plans[idx]),
		})
		res.add(merged)
		if idx < len(pp.Steps)-1 {
			res.IntermediateTuples += merged.Matches
			build = fmt.Sprintf("step%d", idx+1)
		}
		buildT = int(merged.Matches)
	}
	res.IntermediateBytes = res.IntermediateTuples * 8
	for p := range pp.Peak {
		res.PeakIntermediateBytes += pp.Peak[p]
		res.SpillDepth = max(res.SpillDepth, pp.SpillDepth[p])
	}
	if pj.keep {
		res.Partitions = pp
	}
	return res, nil
}

// newPipelinePartitions allocates the per-partition transport of an
// nSteps-step pipeline over a grid of the given size.
func newPipelinePartitions(nSteps, grid int) *PipelinePartitions {
	pp := &PipelinePartitions{
		Steps:      make([][]*core.Result, nSteps),
		Plans:      make([][]*PlanInfo, nSteps),
		Peak:       make([]int64, grid),
		SpillDepth: make([]int, grid),
	}
	for t := 0; t < nSteps; t++ {
		pp.Steps[t] = make([]*core.Result, grid)
		pp.Plans[t] = make([]*PlanInfo, grid)
	}
	return pp
}
