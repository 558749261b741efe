package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// one partition job runs. It sees a relation's record only to place and
// remove its slices, and never merges.
type backend interface {
	// place stores one relation's partition slices, all or nothing, and
	// writes what it keeps onto the record — in-process, sr.parts and the
	// catalog entries holding them, sr.entries — before the router
	// publishes it. After a failure no slice of the relation remains
	// anywhere.
	place(sr *shardedRel, parts []rel.Relation) error
	// remove drops a relation's slices; in-flight pins keep their data.
	remove(sr *shardedRel)
	// bindJoin and bindPipeline do a job's lock-free preparation before the
	// router's bind pins its registered sources: in-process, materialize
	// generator specs and split the inline sources onto their sources,
	// whose scratch slabs the query releases; on a cluster, build the wire
	// request.
	bindJoin(j *joinJob, sp JoinSpec) error
	bindPipeline(j *pipeJob, sp PipelineSpec) error
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
// side in original tuple order), the full-relation ingest statistics the
// planner fingerprints, the pipeline orderer consumes and a pipeline's
// first step reads its count table from — measured on the FULL relation
// whatever the grid, so a pair workload lands in the same plan-cache bucket
// on every engine shape — and, in-process, the registration's own slices
// and the catalog entries that hold them.
//
// Everything but joins is written before register publishes the record
// and is immutable after, so a query that binds the record pins exactly
// the slices it reads (bind): the snapshot holds by construction, whatever
// is dropped or registered under the name meanwhile.
type shardedRel struct {
	name    string
	source  catalog.Source
	created time.Time

	gen rel.Gen
	// probeOf names the build relation a probe was generated against, as
	// the caller named it at registration; it is reported, never looked up.
	probeOf string
	sel     float64

	// regen is the provenance a generated or probe relation regenerates
	// from in original tuple order, captured at registration: the generated
	// base's spec first, then every probe link above it, this record's own
	// last. A relation anchored on a bulk load has none: over more than one
	// partition it records order instead.
	regen []genLink

	// order records, for relations with no regen split over more than one
	// partition, each original tuple position's grid partition (one byte per
	// tuple). The partition split preserves within-partition relative
	// order, so walking order with per-partition cursors over the record's
	// own slices reassembles the exact original relation — what a probe
	// registration against it needs.
	order []uint8

	// parts are the registration's slices in partition order and entries
	// the catalog entries holding them, both written by backend.place; a
	// cluster router, which holds no tuple data, leaves both nil.
	parts   []rel.Relation
	entries []*catalog.Entry

	tuples int
	stats  catalog.IngestStats

	joins int64
}

// genLink is one step of a relation's regeneration: a generated base's
// spec, or a probe's spec and selectivity over the step below it.
type genLink struct {
	gen rel.Gen
	sel float64
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
	sr := &shardedRel{name: name, source: catalog.Generated, gen: g, regen: []genLink{{gen: g}}}
	return t.register(sr, g.Build())
}

// RegisterProbe generates and registers a probe relation against the
// registered build relation of. The build side is read in original tuple
// order (fullRelation), so the probe is bit-identical to inline
// g.Probe(build, selectivity) on every grid. The probe keeps its own
// provenance — of's regeneration chain with its own link on top, or the
// order of its own slices — so a later probe of it never looks of up again.
func (t *router) RegisterProbe(name, of string, g rel.Gen, selectivity float64) (catalog.Info, error) {
	if err := t.precheck(name, g.N); err != nil {
		return catalog.Info{}, err
	}
	defer t.unpend(name)
	if selectivity < 0 || selectivity > 1 {
		return catalog.Info{}, fmt.Errorf("catalog: selectivity %v out of [0,1]", selectivity)
	}
	base, ofRec, pinned, err := t.fullRelation(of)
	if err != nil {
		return catalog.Info{}, fmt.Errorf("catalog: probe_of %q: %w", of, err)
	}
	defer catalog.Unpin(pinned...)
	// The probe's non-matching keys start at rel.NonMatchBase, above every
	// generated build key: an uploaded base holding one there would match
	// them and the probe would miss its selectivity.
	if ofRec.source == catalog.Loaded && slices.ContainsFunc(base.Keys, func(k int32) bool { return k >= rel.NonMatchBase }) {
		return catalog.Info{}, fmt.Errorf("catalog: probe_of %q: an uploaded key is at or above %d, where a generated probe's non-matching keys start", of, rel.NonMatchBase)
	}
	sr := &shardedRel{name: name, source: catalog.Probe, gen: g, probeOf: of, sel: selectivity}
	if ofRec.regen != nil {
		sr.regen = append(slices.Clip(ofRec.regen), genLink{gen: g, sel: selectivity})
	}
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

// fullRelation returns a registered relation in its original tuple order
// and its record, with the entries (if any) it pinned, which the caller
// unpins when done reading it. Probe generation indexes the build side by
// original position. A grid of one holds exactly that — the one resident
// slice is the relation — and it is read in place. A partition split does
// not preserve positions, so over a larger grid the record's own
// provenance rebuilds it: a relation with a regeneration chain replays it,
// one anchored on a bulk load reassembles its own slices via its order map.
// Either reads nothing but the record, so every route yields the relation
// that registered, bit for bit, whatever was dropped or registered since.
func (t *router) fullRelation(name string) (r rel.Relation, sr *shardedRel, pinned []*catalog.Entry, err error) {
	t.mu.Lock()
	sr = t.rels[name]
	if sr != nil && (t.grid.Whole() || sr.regen == nil) {
		pinned = sr.entries
		catalog.Pin(pinned...)
	}
	t.mu.Unlock()
	// Rebuild outside the lock: regeneration and reassembly are the
	// expensive part.
	switch {
	case sr == nil:
		return r, nil, nil, fmt.Errorf("%w: %q", catalog.ErrNotFound, name)
	case t.grid.Whole():
		return sr.parts[0], sr, pinned, nil
	case sr.regen == nil:
		r, err = reassemble(sr)
		catalog.Unpin(pinned...)
		return r, sr, nil, err
	}
	r = sr.regen[0].gen.Build()
	for _, l := range sr.regen[1:] {
		r = l.gen.Probe(r, l.sel)
	}
	return r, sr, nil, nil
}

// reassemble reconstructs a relation in its original tuple order from its
// own partition slices: walk the ingest-time order map with one cursor per
// partition — the split preserves within-partition relative order, so
// tuple i is the next unconsumed tuple of its recorded partition. A cluster
// router holds no slices to walk.
func reassemble(sr *shardedRel) (rel.Relation, error) {
	if sr.parts == nil {
		return rel.Relation{}, fmt.Errorf("catalog: %q is anchored on a bulk load; a clustered service regenerates relations from their specs and cannot reassemble a loaded relation in original order", sr.name)
	}
	out := rel.Relation{Keys: make([]int32, 0, len(sr.order))}
	cursors := make([]int, len(sr.parts))
	for _, p := range sr.order {
		out.Keys = append(out.Keys, sr.parts[p].Keys[cursors[p]])
		cursors[p]++
	}
	return out, nil
}

// register measures the full-relation ingest statistics, splits the
// relation over the grid, and places the slices with the backend — all or
// nothing. The caller holds the name pending, so nothing
// else can bind it meanwhile.
func (t *router) register(sr *shardedRel, full rel.Relation) (catalog.Info, error) {
	sr.tuples = full.Len()
	sr.stats = catalog.Measure(full)
	if sr.regen == nil && !t.grid.Whole() {
		// A relation anchored on a bulk load has no spec to regenerate from,
		// so the split's inverse is recorded instead: each tuple's
		// partition, one byte per tuple, enough to reassemble the original
		// order for probe registrations against this relation.
		sr.order = make([]uint8, full.Len())
		for i, k := range full.Keys {
			sr.order[i] = uint8(t.grid.PartitionOf(k))
		}
	}
	if err := t.b.place(sr, t.grid.Split(full)); err != nil {
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
	t.b.remove(sr)
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
// and statistics from the router record, pins from its entries.
func (t *router) infoLocked(sr *shardedRel) catalog.Info {
	info := catalog.Info{
		Name:       sr.name,
		Tuples:     sr.tuples,
		Bytes:      int64(sr.tuples) * 8,
		Source:     sr.source,
		SkewBucket: sr.stats.SkewBucket,
		HeavyShare: sr.stats.HeavyShare,
		Pins:       catalog.Pins(sr.entries...),
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

// bind takes a query's snapshot of the catalog in one critical section:
// it resolves every named source to its record, pins the record's entries
// as one set, hands the source the record's slices read-only, and counts
// one join against every record. It is all or nothing: on a failure
// everything the sources hold goes back, an inline split's scratch slabs
// included. A record holds its own slices and entries, immutable once
// published, so nothing needs re-checking: a registration that completed
// before the bind is what the query reads, and a later Drop or
// registration changes nothing it reads.
func (t *router) bind(srcs []source) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range srcs {
		src := &srcs[i]
		if src.name == "" {
			continue
		}
		rec := t.rels[src.name]
		if rec == nil {
			release(srcs)
			return fmt.Errorf("%w: %q", catalog.ErrNotFound, src.name)
		}
		catalog.Pin(rec.entries...)
		src.rec, src.parts = rec, rec.parts
	}
	for i := range srcs {
		if srcs[i].rec != nil {
			srcs[i].rec.joins++
		}
	}
	return nil
}

// release hands back what a bound query's sources hold: each registered
// source's pins and each inline source's split slab. It runs once per
// query, when it turns terminal or is rejected.
func release(srcs []source) {
	for i := range srcs {
		if rec := srcs[i].rec; rec != nil {
			catalog.Unpin(rec.entries...)
		}
		srcs[i].slab.Release()
	}
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
func (t *router) recWorkload(build, probe *source) (plan.Workload, bool) {
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
// in-process (a partition's join over a registered build side probes the
// table its entry keeps instead of building its own), the wire request on
// a cluster.
type joinJob struct {
	opt      core.Options
	auto     bool
	workload *plan.Workload
	// keep retains the raw per-partition results alongside the merge
	// (JoinSpec.KeepPartitions) — the cluster transport's raw material.
	keep bool

	in  [2]source
	req api.JoinRequest
}

// resolveJoin resolves a JoinSpec through the router: the backend prepares
// the inputs, bind pins the registered sides and resolves their records,
// and — when the planner decides — the job carries the centrally measured
// pair workload. Mixed named/inline pairs are accepted in-process (the
// engine facade's contract); the HTTP layer enforces its own
// both-or-neither rule before submitting.
func (t *router) resolveJoin(sp JoinSpec) (resolvedSpec, error) {
	rs := resolvedSpec{auto: sp.Auto}
	job := &joinJob{opt: sp.Opt, auto: sp.Auto, keep: sp.KeepPartitions, workload: sp.Workload}
	job.in[0].name, job.in[1].name = sp.RName, sp.SName
	err := t.b.bindJoin(job, sp)
	if err == nil {
		err = t.bind(job.in[:])
	}
	if err != nil {
		return rs, err
	}
	if r, s := job.in[0].rec, job.in[1].rec; sp.Auto && job.workload == nil && r != nil && s != nil {
		w := t.workload(r, s)
		job.workload = &w
	}
	rs.join = job
	return rs, nil
}

// whole resolves a join's two sources to whole relations in original tuple
// order, with the resolved spec the caller releases and — auto, both
// registered — the memoized pair workload. Inline relations are whole as
// they come (a generator is materialized here); a registered one is whole
// only where the grid keeps it in one piece.
func (t *router) whole(sp JoinSpec) (r, s rel.Relation, w *plan.Workload, rs resolvedSpec, err error) {
	if sp.RName == "" && sp.SName == "" {
		if sp.Gen != nil {
			sp.R, sp.S = sp.Gen.relations()
		}
		return sp.R, sp.S, sp.Workload, rs, nil
	}
	if !t.grid.Whole() {
		return r, s, nil, rs, errors.New("service: an external join does not accept catalog references on a sharded engine, which holds partition slices (resolve the data yourself and pass it inline)")
	}
	if rs, err = t.resolveJoin(sp); err != nil {
		return r, s, nil, rs, err
	}
	return rs.join.in[0].parts[0], rs.join.in[1].parts[0], rs.join.workload, rs, nil
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

// resolvePipeline resolves a pipeline through the router: the backend
// prepares the inputs, bind pins the registered sources and resolves their
// records, then the left-deep order is chosen ONCE from the full-relation
// statistics — every partition (and every server) executes the same order
// — and the first step's pair workload is captured for auto planning.
func (t *router) resolvePipeline(spec PipelineSpec) (resolvedSpec, error) {
	rs := resolvedSpec{auto: spec.Auto}
	if len(spec.Sources) < 2 {
		return rs, fmt.Errorf("%w (got %d)", ErrPipelineTooShort, len(spec.Sources))
	}
	pj := &pipeJob{
		opt:      spec.Opt,
		auto:     spec.Auto,
		sources:  make([]source, len(spec.Sources)),
		declared: spec.DeclaredOrder,
		keep:     spec.KeepPartitions,
		wFirst:   spec.FirstWorkload,
	}
	for i, src := range spec.Sources {
		pj.sources[i].name = src.Name
	}
	if err := t.b.bindPipeline(pj, spec); err != nil {
		return rs, err
	}
	if err := t.bind(pj.sources); err != nil {
		return rs, fmt.Errorf("pipeline source: %w", err)
	}
	for i, src := range spec.Sources {
		in := &pj.sources[i]
		switch {
		case in.rec != nil:
			in.tuples = in.rec.tuples
		case src.Gen != nil:
			in.name, in.tuples = fmt.Sprintf("inline[%d]", i), src.Gen.N
		default:
			in.name, in.tuples = fmt.Sprintf("inline[%d]", i), src.Rel.Len()
		}
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
