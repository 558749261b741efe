package apujoin

import (
	"context"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/service"
)

// Engine is the long-lived handle the library API is built around: one
// Engine owns the resident worker pool, the shared plan cache, the
// zero-copy budget for resident data, and a relation catalog where data is
// registered once — by generator spec or bulk load, with workload
// statistics measured at ingest — and referenced by name from any number
// of joins afterwards (the paper's co-processing schemes assume relations
// already resident in the region both devices address, Sec. 4).
//
//	eng := apujoin.NewEngine()
//	defer eng.Close()
//	eng.Register("orders", apujoin.Gen{N: 1 << 20, Seed: 1})
//	eng.RegisterProbe("lineitem", "orders", apujoin.Gen{N: 1 << 20, Seed: 2}, 1.0)
//	res, err := eng.Join(ctx, apujoin.Ref("orders"), apujoin.Ref("lineitem"),
//		apujoin.WithAlgo(apujoin.PHJ), apujoin.WithScheme(apujoin.PL))
//
// A catalog-referenced join is bit-identical to the same join with inline
// relations: registration changes where the data lives and what is
// re-measured per query, never a single simulated number.
//
// Engine.Join is synchronous and runs outside the admission layer of
// internal/service (the caller bounds its own concurrency); apujoind's
// HTTP surface layers bounded admission and batching on the same
// primitives. All methods are safe for concurrent use.
type Engine struct {
	svc *service.Service
}

// engineConfig collects EngineOption settings.
type engineConfig struct {
	workers      int
	planCache    int
	catalogBytes int64
	shards       int
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

// Workers sizes the engine's resident worker pool; the default (and any
// value <= 0) is GOMAXPROCS. The worker count changes host wall-clock
// only — never a match count or a simulated time.
func Workers(n int) EngineOption { return func(c *engineConfig) { c.workers = n } }

// PlanCacheSize bounds the engine's plan cache (plans per distinct
// workload fingerprint); <= 0 selects the default capacity.
func PlanCacheSize(n int) EngineOption { return func(c *engineConfig) { c.planCache = n } }

// CatalogCapacity bounds the zero-copy bytes the engine's registered
// relations may occupy; <= 0 selects the A8-3870K's 512 MB. The engine
// holds it in one catalog, sharded (WithShards) or not.
func CatalogCapacity(bytes int64) EngineOption {
	return func(c *engineConfig) { c.catalogBytes = bytes }
}

// WithShards selects the sharded engine for any n >= 1: relations register
// once and split by key hash over a fixed grid of partitions in the
// engine's one catalog, and every join or pipeline fans out to all
// partitions and merges deterministically. The value of n selects nothing
// else — every n >= 1 is the same engine, with the same results and the
// same budget. n <= 0 keeps the unsharded engine.
func WithShards(n int) EngineOption { return func(c *engineConfig) { c.shards = n } }

// NewEngine starts an engine: the resident pool spins up immediately and
// lives until Close.
func NewEngine(opts ...EngineOption) *Engine {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	// Admission bounds (MaxConcurrent/MaxQueue) are a service-layer
	// concern; Engine.Join is synchronous and bounded by its callers.
	return &Engine{svc: service.New(service.Config{
		Workers:      cfg.workers,
		PlanCache:    cfg.planCache,
		CatalogBytes: cfg.catalogBytes,
		Shards:       cfg.shards,
	})}
}

// Close stops the engine: running joins finish, the resident pool drains.
// Close blocks until no engine goroutine remains and is idempotent.
func (e *Engine) Close() error { return e.svc.Close() }

// Source names one side of a join: a catalog reference (Ref) or an inline
// relation (Inline). The zero value is an empty inline relation.
type Source struct {
	name string
	rel  Relation
}

// Ref references the relation registered under name in the engine's
// catalog. The join pins the entry for its duration, so a concurrent Drop
// cannot pull the data out from under it.
func Ref(name string) Source { return Source{name: name} }

// Inline carries a caller-held relation into a single join. Inline joins
// are measured per query; registering the relation instead moves
// generation and measurement to ingest.
func Inline(r Relation) Source { return Source{rel: r} }

// RelationInfo describes one registered relation: size, provenance,
// ingest-time workload statistics, and the pins held by in-flight queries.
type RelationInfo = catalog.Info

// Register generates and registers a build relation from a spec (keys are
// a permutation of [1, KeyRange] — the primary-key side of a join). On a
// sharded engine the relation is generated once and split into the grid's
// partitions by key hash.
func (e *Engine) Register(name string, g Gen) (RelationInfo, error) {
	return e.svc.RegisterGen(name, g)
}

// RegisterProbe generates and registers a probe relation against the
// registered build relation of: the given fraction of its tuples carry
// keys present in the build side, with g's skew applied — exactly
// g.Probe(build, selectivity), so the result is bit-identical to inline
// generation from the same spec. An unsharded engine reads the resident
// build side; a sharded one rebuilds it in original tuple order first —
// regenerated from its stored spec, or, for a bulk-loaded relation,
// reassembled from its partition entries via the recorded ingest order.
func (e *Engine) RegisterProbe(name, of string, g Gen, selectivity float64) (RelationInfo, error) {
	return e.svc.RegisterProbe(name, of, g, selectivity)
}

// Load registers an existing relation (bulk load) by its key column alone;
// its RIDs field is ignored. On the unsharded engine the key column is
// retained, not copied, and the caller must not mutate it afterwards; a
// sharded engine copies it into its partition split.
func (e *Engine) Load(name string, r Relation) (RelationInfo, error) {
	return e.svc.LoadRelation(name, r)
}

// Drop unregisters a relation: the name unbinds immediately while joins
// already referencing the entry keep their data; the resident bytes free
// when the last one finishes.
func (e *Engine) Drop(name string) error {
	_, err := e.svc.DropRelation(name)
	return err
}

// Relations lists the registered relations, sorted by name.
func (e *Engine) Relations() []RelationInfo { return e.svc.Relations() }

// Relation returns one registered relation's info.
func (e *Engine) Relation(name string) (RelationInfo, bool) { return e.svc.RelationInfo(name) }

// Shards returns 1 for a sharded engine, whatever WithShards was given, and
// 0 for an unsharded one.
func (e *Engine) Shards() int { return e.svc.Shards() }

// spec folds one join's sources and resolved options into the service's
// form, routed onto the engine's resident pool unless the caller chose one.
func (e *Engine) spec(r, s Source, cfg joinConfig) service.JoinSpec {
	e.injectPool(&cfg.opt)
	return service.JoinSpec{R: r.rel, S: s.rel, RName: r.name, SName: s.name, Opt: cfg.opt, Auto: cfg.auto}
}

// Join executes one hash join of R ⋈ S on the engine: sources resolve
// against the catalog (Ref) or come inline — any mix of the two — and
// options configure the run (WithAlgo, WithScheme, ... — the zero set is a
// coupled-architecture SHJ-PL). Unless WithWorkers requests a dedicated
// pool, the join runs on the engine's resident workers. WithAuto consults
// the engine's plan cache; a catalog-referenced pair plans from its
// ingest-time statistics without re-measuring the data. A join with an
// empty side matches nothing and costs nothing: it reports the zero Result.
//
// Every engine runs the same path: the join resolves through the router,
// fans out to each hash partition of the engine's grid (per-partition
// planning under WithAuto) and merges deterministically — over the single
// partition of an unsharded engine all three are the identity.
func (e *Engine) Join(ctx context.Context, r, s Source, opts ...JoinOption) (*Result, error) {
	return e.svc.RunJoin(ctx, e.spec(r, s, applyJoinOptions(opts)))
}

// JoinExternal joins relations whose footprint exceeds the zero-copy
// buffer, partitioning through it in chunks (paper appendix). Sources and
// options follow Join; WithAuto carries only the planned algorithm and
// scheme into the per-pair sub-joins. External joins chunk whole relations:
// a sharded engine holds only partition slices, so it accepts Inline
// sources but not Ref ones.
func (e *Engine) JoinExternal(ctx context.Context, r, s Source, opts ...JoinOption) (*ExternalResult, error) {
	return e.svc.RunExternal(ctx, e.spec(r, s, applyJoinOptions(opts)))
}

// injectPool routes the run onto the engine's resident pool unless the
// caller asked for a dedicated transient pool (WithWorkers, or Workers in
// a WithOptions struct) or injected a pool of their own. Pool choice never
// changes results, only host wall-clock.
func (e *Engine) injectPool(opt *core.Options) {
	if opt.Pool == nil && opt.Workers == 0 {
		opt.Pool = e.svc.Pool()
	}
}
