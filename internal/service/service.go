// Package service is the multi-query join service layer: a long-lived
// Service owns one resident sched.Pool shared by every query, an admission
// layer that bounds how many queries execute and wait at once, a shared
// plan cache behind auto joins (JoinSpec.Auto: the planner picks
// algorithm, scheme and ratios; repeated workload shapes skip the pilot
// entirely), a relation catalog (register data once, join by name —
// SubmitSpec/SubmitBatch; named queries pin their relations for their
// lifetime and reuse the catalog's ingest-time statistics in the planner
// fingerprint), and a metrics surface aggregated across the service's
// lifetime.
//
// The determinism contract of the execution engine extends to the service:
// a query's match count and every simulated time are bit-identical whether
// it runs alone, serially after other queries, or interleaved with N
// concurrent queries — only host wall-clock changes. This holds because
// each query owns its arenas, intermediate arrays, device pair and
// zero-copy buffer (nothing simulated is shared), while only the host
// worker goroutines — which the device model never charges — are pooled.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/cluster"
	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
	"apujoin/internal/service/api"
	"apujoin/internal/shard"
)

// ErrClosed reports a submission after Close.
var ErrClosed = errors.New("service: closed")

// ErrQueueFull reports that the admission queue is at capacity; the caller
// should retry later (HTTP layers map it to 429/503).
var ErrQueueFull = errors.New("service: admission queue full")

// Config configures a Service: one struct carries every sizing knob —
// pool, admission, plan cache, catalog budget and sharding — so front-ends
// (cmd/apujoind's flags, the engine facade's options) fold their settings
// into a single value instead of threading positional constructor args.
type Config struct {
	// Workers sizes the shared resident worker pool; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// MaxConcurrent bounds the queries executing simultaneously; <= 0
	// defaults to 2. More concurrency overlaps host work but each admitted
	// query's submitter goroutine competes for the same pool workers.
	MaxConcurrent int
	// MaxQueue bounds the queries waiting for admission; <= 0 defaults to
	// 64. Submits beyond it fail fast with ErrQueueFull.
	MaxQueue int
	// KeepResults bounds how many finished queries stay pollable; <= 0
	// defaults to 1024. The oldest finished queries are evicted first.
	KeepResults int
	// PlanCache bounds the plan cache consulted by auto joins; <= 0 selects
	// plan.DefaultCacheCapacity. There is one planner per grid partition —
	// one on an unsharded service — and each gets this capacity.
	PlanCache int
	// CatalogBytes bounds the zero-copy space the relation catalog's
	// resident relations may occupy; <= 0 selects the A8-3870K's 512 MB.
	// An in-process service holds it in one catalog whatever its grid.
	CatalogBytes int64
	// Shards >= 1 selects the sharded engine: relations register once and
	// split by key hash over the fixed shard.Partitions grid in the one
	// catalog, joins and pipelines fan out to every partition and merge
	// deterministically, and the service can serve a cluster router. The
	// value selects nothing else: every n >= 1 is the same engine. 0 (the
	// default) is the unsharded engine: the same router over a grid of one
	// partition, where a relation's single slice is the relation itself.
	Shards int
	// Cluster lists the base URLs of remote apujoind shard servers. When
	// non-empty the service becomes a network cluster router — what
	// apujoind -cluster serves: relations register by splitting over the
	// fixed shard.Partitions grid and uploading each server's owned
	// partitions, joins and pipelines fan out over HTTP and merge locally
	// in partition order, and results stay bit-identical to a
	// single-process engine over the same data. Cluster takes precedence
	// over Shards (a cluster router holds no tuple data of its own).
	// Between 1 and shard.Partitions servers are supported.
	Cluster []string
	// ClusterTimeout bounds each remote shard request; <= 0 selects 120s
	// (join fan-outs block until the remote query finishes).
	ClusterTimeout time.Duration
	// HealthInterval is the period of the background shard health probe;
	// <= 0 selects 2s.
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures mark a shard
	// down; <= 0 selects 3. A downed shard fails queries fast with a
	// structured shard-down error until a probe (or any successful
	// request) marks it back up.
	HealthFailures int
	// Logf, when set, receives cluster health transitions (shard marked
	// down, shard rejoined) in log.Printf format. Nil silences them.
	Logf func(format string, args ...any)
}

func (o *Config) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.KeepResults <= 0 {
		o.KeepResults = 1024
	}
}

// State is a query's lifecycle position.
type State int

const (
	// Queued: submitted, waiting for an admission slot.
	Queued State = iota
	// Running: admitted, executing on the shared pool.
	Running
	// Done: finished successfully; the result is available.
	Done
	// Failed: finished with an error.
	Failed
	// Canceled: cancelled (by its context or by Close) before finishing.
	Canceled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "canceled"}

// String returns the lowercase state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Query is one submitted join. All accessors are safe for concurrent use.
type Query struct {
	// ID is the service-assigned identifier, dense from 1 in submit order.
	ID int64

	mu  sync.Mutex
	rep Report

	// auto marks an auto query (JoinSpec.Auto).
	auto bool

	// srcs are the query's bound sources, whose pins and scratch slabs are
	// released when the query reaches a terminal state.
	srcs []source

	cancel context.CancelFunc
	done   chan struct{}
}

// Report is a query at one point in time: its lifecycle position and, once
// it has finished, everything it produced. The pointed-to values are never
// written after the query turns terminal, so a Report may be read freely.
type Report struct {
	ID    int64
	State State
	// Err is the terminal error of a failed or canceled query.
	Err error
	// Wall is host wall-clock from admission to finish (0 until finished,
	// and for a query that never left the queue).
	Wall time.Duration
	// Result is a done query's result: a pipeline's final step.
	Result *core.Result
	// Pipeline is a done pipeline query's per-step report.
	Pipeline *PipelineResult
	// Plan aggregates the planner's decisions of a done join whose
	// partitions were planned.
	Plan *PlanInfo
	// Partitions holds the raw per-partition results of a done join
	// submitted with JoinSpec.KeepPartitions, indexed by grid partition.
	// Merging them over the grid (shard.Grid.Merge) yields exactly Result.
	Partitions []*core.Result
}

// Report returns the query's current report.
func (q *Query) Report() Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rep
}

// Cancel requests cancellation: a queued query is dropped, a running query
// aborts at its next step boundary.
func (q *Query) Cancel() { q.cancel() }

// Wait blocks until the query finishes or ctx is cancelled, returning the
// result or the query's terminal error.
func (q *Query) Wait(ctx context.Context) (*core.Result, error) {
	select {
	case <-q.done:
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.rep.Result, q.rep.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// PlanInfo is the plan report of one auto-planned query: what the planner
// chose, whether the plan came from the cache, and its predicted time —
// aggregated over the grid's partitions (mergePlans). It is the type the
// cluster transport carries per partition, so no copy sits between them.
type PlanInfo = api.PartitionPlan

// PhaseNS aggregates simulated per-phase time across completed queries.
type PhaseNS struct {
	Partition float64 `json:"partition_ns"`
	Build     float64 `json:"build_ns"`
	Probe     float64 `json:"probe_ns"`
	Merge     float64 `json:"merge_ns"`
	Transfer  float64 `json:"transfer_ns"`
}

// Stats is the service's metrics surface.
type Stats struct {
	Workers       int `json:"workers"`
	MaxConcurrent int `json:"max_concurrent"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	// Batches counts multi-query SubmitBatch admissions (each amortizes
	// one admission transaction over its queries).
	Batches int64 `json:"batches"`

	// Pipelines counts completed multi-way pipeline queries and
	// PipelineSteps their executed pairwise steps. IntermediateTuples and
	// IntermediateBytes total the intermediates those pipelines produced;
	// PeakIntermediateBytesStreamed is the largest resident intermediate
	// footprint any single completed pipeline reached (at most one
	// transient intermediate's relation bytes per chain) — what the CI-gated
	// memory budget compares.
	Pipelines                     int64 `json:"pipelines"`
	PipelineSteps                 int64 `json:"pipeline_steps"`
	IntermediateTuples            int64 `json:"intermediate_tuples"`
	IntermediateBytes             int64 `json:"intermediate_bytes"`
	PeakIntermediateBytesStreamed int64 `json:"peak_intermediate_bytes_streamed"`

	// Replans counts mid-pipeline re-orderings across completed pipelines;
	// SpilledPartitions and SpillBytes total the hybrid-hash spill activity
	// of completed queries (partitions routed through the simulated spill
	// store under memory pressure, and the bytes written to it).
	Replans           int64 `json:"replans"`
	SpilledPartitions int64 `json:"spilled_partitions"`
	SpillBytes        int64 `json:"spill_bytes"`

	// Queued and Active are gauges: queries waiting for admission and
	// queries currently executing.
	Queued int64 `json:"queued"`
	Active int64 `json:"active"`

	// Matches and SimulatedNS sum over completed queries; WallNS sums host
	// execution wall-clock (admission to finish).
	Matches     int64   `json:"matches"`
	SimulatedNS float64 `json:"simulated_ns"`
	WallNS      int64   `json:"wall_ns"`
	Phases      PhaseNS `json:"phases"`

	// Auto-planning surface. AutoPlanned counts completed auto queries;
	// PlanHits/PlanMisses/PlanEvictions/PlanEntries mirror the shared plan
	// cache; the Predicted/Simulated/AbsErr sums (over completed auto
	// queries) expose the cost model's predicted-vs-simulated error, whose
	// mean relative value is PlanAbsErrNS / PlanSimulatedNS.
	AutoPlanned     int64   `json:"auto_planned"`
	PlanHits        int64   `json:"plan_hits"`
	PlanMisses      int64   `json:"plan_misses"`
	PlanEvictions   int64   `json:"plan_evictions"`
	PlanEntries     int     `json:"plan_entries"`
	PlanPredictedNS float64 `json:"plan_predicted_ns"`
	PlanSimulatedNS float64 `json:"plan_simulated_ns"`
	PlanAbsErrNS    float64 `json:"plan_abs_err_ns"`

	// Catalog mirrors the relation catalog: resident relations (each
	// counted once, however many partitions it split into), their zero-copy
	// footprint, and how often ingest-time statistics were reused in place
	// of per-query measurement.
	Catalog catalog.Stats `json:"catalog"`

	// Shards is 1 on a sharded in-process service (its one catalog), the
	// remote server count on a clustered one, and 0 (absent) unsharded.
	Shards int `json:"shards,omitempty"`

	// Cluster carries the per-shard health and latency gauges of a
	// clustered service: up/down state, probe counters and latency,
	// request/failure/retry totals per remote server.
	Cluster *cluster.Report `json:"cluster,omitempty"`
}

// Service is a multi-query join service over one shared resident pool.
type Service struct {
	opt  Config
	pool *sched.Pool
	// router is the front every relation registration, join and pipeline
	// goes through: over remote shard servers when Config.Cluster is set
	// (which wins: a cluster router holds no tuple data), else over one
	// in-process catalog — behind the fixed hash-partition grid when
	// Config.Shards >= 1, holding whole relations (a grid of one) when
	// unsharded.
	router *router
	// sem holds one slot per concurrently executing query; acquisition
	// order is the runtime's FIFO for blocked channel sends, which
	// interleaves waiting queries fairly.
	sem     chan struct{}
	closing chan struct{}

	mu      sync.Mutex
	closed  bool
	nextID  int64
	queries map[int64]*Query
	// The retained queries in submit order, for eviction and listing: the
	// queued or running ones eviction passed over, then order[head:]
	// (order[:head] is spent and compacted away once it is half of order).
	blocked []*Query
	order   []*Query
	head    int
	stats   Stats

	wg sync.WaitGroup
}

// New starts a service: the resident pool spins up immediately and lives
// until Close.
func New(opt Config) *Service {
	opt.setDefaults()
	s := &Service{
		opt:     opt,
		pool:    sched.NewPool(opt.Workers),
		sem:     make(chan struct{}, opt.MaxConcurrent),
		closing: make(chan struct{}),
		queries: make(map[int64]*Query),
	}
	if len(opt.Cluster) > 0 {
		b := newRemoteBackend(opt)
		s.router = newRouter(b, shard.Partitions)
	} else {
		b := newLocalBackend(opt, s.pool)
		s.router = newRouter(b, b.grid)
	}
	s.stats.Workers = s.pool.Workers()
	s.stats.MaxConcurrent = opt.MaxConcurrent
	return s
}

// ShardServer reports whether the service can serve a cluster router as
// one of its shard servers: a sharded in-process engine, which runs every
// grid partition itself and can report each one's raw result
// (JoinSpec.KeepPartitions). An unsharded engine has no grid to report; a
// router runs no partition of its own.
func (s *Service) ShardServer() bool { return len(s.opt.Cluster) == 0 && s.opt.Shards > 0 }

// Shards returns how many processes hold the service's partitions: the
// remote server count for a cluster router, 1 for a sharded in-process
// service whatever its configured count, 0 when unsharded.
func (s *Service) Shards() int {
	if n := len(s.opt.Cluster); n > 0 {
		return min(n, shard.Partitions)
	}
	return min(max(s.opt.Shards, 0), 1)
}

// Pool exposes the shared resident pool (for callers running joins outside
// the admission layer but on the same workers).
func (s *Service) Pool() *sched.Pool { return s.pool }

// RegisterGen generates and registers a build relation from a spec (keys a
// permutation of [1, KeyRange] — the primary-key side of a join), splitting
// it over the grid's partitions when the service is sharded.
func (s *Service) RegisterGen(name string, g rel.Gen) (catalog.Info, error) {
	return s.router.RegisterGen(name, g)
}

// RegisterProbe generates and registers a probe relation against the
// registered build relation of, with the given match selectivity: exactly
// g.Probe(build, selectivity), bit-identical to inline generation from the
// same specs. An unsharded service reads the build side where it is
// resident; a sharded one rebuilds it in original tuple order first.
func (s *Service) RegisterProbe(name, of string, g rel.Gen, selectivity float64) (catalog.Info, error) {
	return s.router.RegisterProbe(name, of, g, selectivity)
}

// LoadRelation registers an existing relation (bulk load) by its key
// column alone; its RIDs field is ignored. An unsharded service retains
// the key column, which the caller must not mutate afterwards; a sharded
// one copies it into its partition split.
func (s *Service) LoadRelation(name string, r rel.Relation) (catalog.Info, error) {
	return s.router.Load(name, r)
}

// DropRelation unregisters a relation: the name unbinds immediately while
// in-flight queries keep their pins.
func (s *Service) DropRelation(name string) (catalog.Info, error) {
	return s.router.Drop(name)
}

// Relations lists the registered relations, sorted by name.
func (s *Service) Relations() []catalog.Info { return s.router.List() }

// RelationInfo snapshots one registered relation.
func (s *Service) RelationInfo(name string) (catalog.Info, bool) { return s.router.Get(name) }

// RunJoin executes one join synchronously, outside the admission layer —
// the engine facade's path (the caller bounds its own concurrency and
// provides the worker pool through spec.Opt). The spec resolves exactly as
// SubmitSpec's would: it fans out to every grid partition and merges
// deterministically.
func (s *Service) RunJoin(ctx context.Context, spec JoinSpec) (*core.Result, error) {
	rs, err := s.router.resolveJoin(spec)
	if err != nil {
		return nil, err
	}
	defer rs.release()
	res, _, _, err := s.router.execJoin(ctx, rs.join)
	return res, err
}

// RunExternal executes one join whose footprint exceeds the zero-copy
// buffer, chunking whole relations through it (paper appendix) —
// synchronously and outside the admission layer, like RunJoin. Registered
// sources resolve to their resident data, which only an unsharded service
// holds whole (a sharded one keeps partition slices and answers an error);
// inline sources work on any service, a generator spec materialized here.
// Auto plans the whole pair once — a registered pair from its memoized
// workload — and carries the planned algorithm and scheme into the
// per-chunk sub-joins.
func (s *Service) RunExternal(ctx context.Context, spec JoinSpec) (*core.ExternalResult, error) {
	r, sr, w, rs, err := s.router.whole(spec)
	if err != nil {
		return nil, err
	}
	defer rs.release()
	opt := spec.Opt
	if spec.Auto {
		if opt.Plan, _, err = s.router.b.planWhole(ctx, r, sr, opt, w); err != nil {
			return nil, err
		}
	}
	return core.RunExternalCtx(ctx, r, sr, opt)
}

// JoinSpec describes one join for SubmitSpec/SubmitBatch: each side is
// either an inline relation (R/S, or both generated from Gen) or a
// reference to a registered one (RName/SName). Auto hands algorithm, scheme
// and ratios to the planner; for named pairs the fingerprint reuses the
// ingest-time skew/selectivity buckets instead of re-measuring.
type JoinSpec struct {
	// R and S are inline relations, used when RName/SName are empty.
	R, S rel.Relation
	// Gen, when non-nil, generates R and S in their place. The backend
	// materializes it: an in-process engine generates the pair and splits
	// it, a cluster router sends the spec and every shard server generates
	// the same full relations.
	Gen *JoinGen
	// RName and SName reference relations registered on the service. The
	// query pins both for its lifetime, so a concurrent Drop cannot pull
	// the data out from under it.
	RName, SName string
	// Opt is the per-query options; Pool is overridden with the shared
	// resident pool.
	Opt core.Options
	// Auto ignores Opt.Algo/Opt.Scheme and any Opt.Plan and lets the
	// planner decide when the query starts executing: a fingerprint hit in
	// the shared plan cache skips the pilot and ratio searches, a miss
	// builds the plan and caches it for every later query of the same
	// shape. The other options are part of the fingerprint where they
	// shape the plan.
	Auto bool
	// Workload, when non-nil, overrides the pair workload the planner
	// fingerprints with for Auto queries. A cluster router sets it on the
	// requests it forwards so shard servers — which hold only a subset of
	// each relation — fingerprint with the full-relation statistics and
	// make the same planning decisions a single-process engine would.
	Workload *plan.Workload
	// KeepPartitions asks a sharded service to retain the raw
	// per-partition results alongside the merged one (Query.Partitions).
	// Shard servers answering a cluster router's fan-out set it: the
	// router overlays each partition from its owner and merges locally,
	// which is what keeps cluster results bit-identical.
	KeepPartitions bool
}

// JoinGen generates an inline join's pair: a build side of R tuples of
// distribution Dist from Seed, and S tuples from Seed+1 that probe it at
// selectivity Sel. It is the pair POST /v1/join's inline fields describe,
// and the pair RegisterGen and RegisterProbe build from the same specs.
type JoinGen struct {
	R, S int
	Dist rel.Distribution
	Seed int64
	Sel  float64
}

// relations materializes the generator's pair.
func (g *JoinGen) relations() (r, s rel.Relation) {
	r = rel.Gen{N: g.R, Dist: g.Dist, Seed: g.Seed}.Build()
	return r, rel.Gen{N: g.S, Dist: g.Dist, Seed: g.Seed + 1}.Probe(r, g.Sel)
}

// resolvedSpec is one admitted unit of work after resolution through the
// router: a pairwise join, or — when pipe is set — a multi-way pipeline.
type resolvedSpec struct {
	auto bool
	// join is the backend-bound per-partition job of a pairwise join, pipe
	// that of a pipeline (SubmitPipeline); at most one is set.
	join *joinJob
	pipe *pipeJob
}

// sources are the spec's bound sources: what its query holds.
func (rs *resolvedSpec) sources() []source {
	switch {
	case rs.join != nil:
		return rs.join.in[:]
	case rs.pipe != nil:
		return rs.pipe.sources
	}
	return nil
}

func (rs *resolvedSpec) release() { release(rs.sources()) }

// SubmitSpec enqueues one join described by a JoinSpec and returns
// immediately. A free execution slot is claimed on the spot — a burst onto
// an idle service is never rejected while capacity exists — otherwise the
// query waits in the bounded queue. ctx cancels it while queued or
// running. spec.Opt.Pool is overridden with the service's shared pool;
// every other option is per-query (each query gets its own arenas and,
// when Opt.ZeroCopy is nil, its own zero-copy buffer — callers must not
// share one ZeroCopy across concurrent submissions).
func (s *Service) SubmitSpec(ctx context.Context, spec JoinSpec) (*Query, error) {
	qs, err := s.SubmitBatch(ctx, []JoinSpec{spec})
	if err != nil {
		return nil, err
	}
	return qs[0], nil
}

// SubmitBatch admits many queries in one admission transaction,
// amortizing catalog resolution, slot claiming and queue accounting over
// the batch — the fast path for clients submitting many queries over the
// same registered relations. Admission is all-or-nothing: free execution
// slots are claimed for as many queries as possible and the rest join the
// wait queue, but if the queue cannot hold them the whole batch is
// rejected with ErrQueueFull (no partial admission). ctx cancels every
// query of the batch while queued or running; per-query options follow
// the SubmitSpec contract.
func (s *Service) SubmitBatch(ctx context.Context, specs []JoinSpec) ([]*Query, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	// Resolve catalog references before touching admission; pins taken
	// here are released when each query reaches a terminal state, or
	// below on rejection.
	res := make([]resolvedSpec, len(specs))
	for i, sp := range specs {
		sp.Opt.Pool = s.pool
		rs, err := s.router.resolveJoin(sp)
		if err != nil {
			for j := range res[:i] {
				res[j].release()
			}
			return nil, fmt.Errorf("query %d of %d: %w", i+1, len(specs), err)
		}
		res[i] = rs
	}
	return s.submitResolved(ctx, res, len(specs) > 1)
}

// submitResolved is the admission transaction shared by SubmitBatch and
// SubmitPipeline: claim free execution slots, bound the waiters by the
// queue, reject all-or-nothing, and spawn one runner per query. The
// resolved specs' pins are owned by the queries from here on (released at
// each terminal state) — or released here when the whole set is rejected.
func (s *Service) submitResolved(ctx context.Context, res []resolvedSpec, batch bool) ([]*Query, error) {
	reject := func() {
		for i := range res {
			res[i].release()
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		reject()
		return nil, ErrClosed
	}
	// Immediate admission when slots are free; only genuinely waiting
	// queries count against (and are bounded by) the queue.
	admitted := make([]bool, len(res))
	waiting := 0
	for i := range res {
		select {
		case s.sem <- struct{}{}:
			admitted[i] = true
		default:
			waiting++
		}
	}
	if waiting > 0 && s.stats.Queued+int64(waiting) > int64(s.opt.MaxQueue) {
		for _, a := range admitted {
			if a {
				<-s.sem
			}
		}
		s.stats.Rejected += int64(len(res))
		s.mu.Unlock()
		reject()
		return nil, ErrQueueFull
	}
	now := time.Now()
	qs := make([]*Query, len(res))
	ctxs := make([]context.Context, len(res))
	for i := range res {
		s.nextID++
		qctx, cancel := context.WithCancel(ctx)
		q := &Query{
			ID:     s.nextID,
			rep:    Report{ID: s.nextID},
			auto:   res[i].auto,
			cancel: cancel,
			done:   make(chan struct{}),
			srcs:   res[i].sources(),
		}
		if admitted[i] {
			q.rep.State = Running
			s.stats.Active++
		} else {
			s.stats.Queued++
		}
		s.queries[q.ID] = q
		s.order = append(s.order, q)
		s.stats.Submitted++
		qs[i], ctxs[i] = q, qctx
	}
	s.evictLocked()
	if batch {
		s.stats.Batches++
	}
	s.wg.Add(len(res))
	s.mu.Unlock()

	for i, q := range qs {
		var started time.Time
		if admitted[i] {
			started = now
		}
		//apulint:ignore nakedgo(query lifecycle goroutine, tracked by s.wg and cancelled via qctx; the query's data parallelism still runs on the pool)
		go s.run(ctxs[i], q, res[i], started)
	}
	return qs, nil
}

// run carries one query from admission through completion; started is its
// admission time, zero while it still waits for a slot.
func (s *Service) run(ctx context.Context, q *Query, rs resolvedSpec, started time.Time) {
	defer s.wg.Done()
	defer q.cancel()

	if started.IsZero() {
		// Shutdown and cancellation win over a simultaneously free slot:
		// check them first, and again after acquiring, because the
		// blocking select picks uniformly among ready cases.
		select {
		case <-ctx.Done():
			s.finish(q, Report{State: Canceled, Err: ctx.Err()}, time.Time{})
			return
		case <-s.closing:
			s.finish(q, Report{State: Canceled, Err: ErrClosed}, time.Time{})
			return
		default:
		}
		select {
		case s.sem <- struct{}{}:
			select {
			case <-s.closing:
				<-s.sem
				s.finish(q, Report{State: Canceled, Err: ErrClosed}, time.Time{})
				return
			default:
			}
		case <-ctx.Done():
			s.finish(q, Report{State: Canceled, Err: ctx.Err()}, time.Time{})
			return
		case <-s.closing:
			s.finish(q, Report{State: Canceled, Err: ErrClosed}, time.Time{})
			return
		}
		started = time.Now()
		q.mu.Lock()
		q.rep.State = Running
		q.mu.Unlock()
		s.mu.Lock()
		s.stats.Queued--
		s.stats.Active++
		s.mu.Unlock()
	}
	// From here the slot is held and the query runs to completion even if
	// Close is called.
	defer func() { <-s.sem }()

	// A pipeline query runs its whole chain inside the one admission slot:
	// the final step's Result is the query's Result. A plain join reports the
	// planner's decision and, when asked, its raw per-partition results.
	rep := Report{State: Done}
	var err error
	if rs.pipe != nil {
		if rep.Pipeline, err = s.router.execPipeline(ctx, rs.pipe); err == nil {
			rep.Result = rep.Pipeline.Final
		}
	} else {
		rep.Result, rep.Partitions, rep.Plan, err = s.router.execJoin(ctx, rs.join)
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rep = Report{State: Canceled, Err: err}
	default:
		rep = Report{State: Failed, Err: err}
	}
	s.finish(q, rep, started)
}

// finish moves a query to rep's terminal state, publishing everything it
// produced in one step, and folds it into the metrics. A zero started time
// means the query never left the queue.
func (s *Service) finish(q *Query, rep Report, started time.Time) {
	now := time.Now()
	rep.ID = q.ID
	if !started.IsZero() {
		rep.Wall = now.Sub(started)
	}
	q.mu.Lock()
	q.rep = rep
	q.mu.Unlock()
	// Waiters wake last (deferred before the lock below, so after its
	// unlock): Stats read right after Wait already counts this query.
	defer close(q.done)
	// The query no longer reads its relations: release its catalog pins
	// and scratch slabs (finish runs exactly once per query, so they are
	// released exactly once), and let go of its records, so a retained
	// query keeps no dropped relation's slices or count table alive.
	release(q.srcs)
	q.srcs = nil

	s.mu.Lock()
	defer s.mu.Unlock()
	if started.IsZero() {
		s.stats.Queued--
	} else {
		s.stats.Active--
		s.stats.WallNS += rep.Wall.Nanoseconds()
	}
	switch rep.State {
	case Done:
		s.stats.Completed++
		s.stats.Matches += rep.Result.Matches
		if q.auto {
			s.stats.AutoPlanned++
		}
		if pipe := rep.Pipeline; pipe != nil {
			// A pipeline folds every step of its serial chain into the
			// simulated totals; Matches stays the final multi-way count.
			s.stats.Pipelines++
			s.stats.PipelineSteps += int64(len(pipe.Steps))
			s.stats.IntermediateTuples += pipe.IntermediateTuples
			s.stats.IntermediateBytes += pipe.IntermediateBytes
			s.stats.Replans += pipe.Replans
			s.stats.SpilledPartitions += pipe.SpilledPartitions
			s.stats.SpillBytes += pipe.SpillBytes
			s.stats.PeakIntermediateBytesStreamed = max(s.stats.PeakIntermediateBytesStreamed, pipe.PeakIntermediateBytes)
			s.stats.SimulatedNS += pipe.TotalNS
			for _, step := range pipe.Steps {
				s.stats.addRun(step.Result, step.Plan)
			}
			break
		}
		s.stats.SimulatedNS += rep.Result.TotalNS
		s.stats.addRun(rep.Result, rep.Plan)
	case Failed:
		s.stats.Failed++
	case Canceled:
		s.stats.Canceled++
	}
}

// addRun folds one executed join — a query's, or one pipeline step's —
// into the phase totals and, when it was planned, the planner's error.
func (st *Stats) addRun(r *core.Result, pl *PlanInfo) {
	st.Phases.Partition += r.PartitionNS
	st.Phases.Build += r.BuildNS
	st.Phases.Probe += r.ProbeNS
	st.Phases.Merge += r.MergeNS
	st.Phases.Transfer += r.TransferNS
	if pl != nil {
		st.PlanPredictedNS += pl.PredictedNS
		st.PlanSimulatedNS += r.TotalNS
		st.PlanAbsErrNS += math.Abs(pl.PredictedNS - r.TotalNS)
	}
}

// evictLocked drops the oldest finished queries beyond the retention cap.
// Queries still queued or running are never evicted: eviction passes over
// them into blocked, where the next eviction looks first, so each call
// costs the blocked queries plus the ones it drops.
func (s *Service) evictLocked() {
	excess := len(s.queries) - s.opt.KeepResults
	if excess <= 0 {
		return
	}
	kept := s.blocked[:0]
	for _, q := range s.blocked {
		if excess > 0 && q.terminal() {
			delete(s.queries, q.ID)
			excess--
			continue
		}
		kept = append(kept, q)
	}
	s.blocked = kept
	for ; excess > 0 && s.head < len(s.order); s.head++ {
		q := s.order[s.head]
		s.order[s.head] = nil
		if q.terminal() {
			delete(s.queries, q.ID)
			excess--
		} else {
			s.blocked = append(s.blocked, q)
		}
	}
	if s.head > len(s.order)/2 {
		n := copy(s.order, s.order[s.head:])
		clear(s.order[n:])
		s.order, s.head = s.order[:n], 0
	}
}

// terminal reports whether q has finished: done, failed or canceled.
func (q *Query) terminal() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rep.State == Done || q.rep.State == Failed || q.rep.State == Canceled
}

// Query returns the query with the given ID, if still retained.
func (s *Service) Query(id int64) (*Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	return q, ok
}

// Queries returns all retained queries in submit order.
func (s *Service) Queries() []*Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs := make([]*Query, 0, len(s.blocked)+len(s.order)-s.head)
	qs = append(qs, s.blocked...)
	qs = append(qs, s.order[s.head:]...)
	return qs
}

// Stats snapshots the metrics surface, folding in the plan cache counters
// — summed over the per-partition caches — and the catalog gauges; on a
// clustered service Cluster reports shard health.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Shards = s.Shards()
	s.router.stats(&st)
	return st
}

// Close shuts the service down gracefully: new submissions are rejected
// with ErrClosed, queries still waiting for admission are cancelled,
// running queries finish normally, and the resident pool is stopped once
// everything has drained. Close blocks until no service goroutine remains
// and is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.closing)
	}
	s.wg.Wait()
	s.pool.Close()
	s.router.b.close()
	return nil
}
