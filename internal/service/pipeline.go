package service

import (
	"context"
	"errors"

	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/service/api"
)

// ErrPipelineTooShort reports a pipeline with fewer than two sources.
var ErrPipelineTooShort = errors.New("service: a pipeline needs at least 2 sources")

// PipelineSource is one input of a multi-way pipeline: a catalog reference
// (Name) or an inline relation (Rel, or generated from Gen, used when Name
// is empty). The backend materializes Gen, as it does JoinSpec.Gen; its
// Seed is final (the HTTP surface resolves the positional default before
// submitting), so reordering the sources never changes what is generated.
type PipelineSource struct {
	Name string
	Rel  rel.Relation
	Gen  *rel.Gen
}

// PipelineSpec describes a join over N ≥ 2 sources, executed as a chain of
// pairwise joins: the first two sources of the chosen order join first and
// every later source probes the previous step's intermediate. Opt configures
// each pairwise step exactly as in SubmitSpec; Auto hands every step's
// algorithm, scheme and ratios to the planner (per-step plan-cache
// consultation, catalog statistics reused where both inputs are resident).
type PipelineSpec struct {
	Sources []PipelineSource
	Opt     core.Options
	Auto    bool
	// DeclaredOrder skips the cost-based join orderer and runs the sources
	// exactly as declared. The final match count is identical either way;
	// only intermediate sizes and costs change.
	DeclaredOrder bool
	// FirstWorkload, when non-nil, overrides the pair workload the planner
	// fingerprints the FIRST step with (later steps build from
	// intermediates and measure their partitions). A cluster router sets
	// it so shard servers plan the first step with the full-relation
	// statistics despite holding only a subset of each source.
	FirstWorkload *plan.Workload
	// KeepPartitions asks a sharded service to retain the raw
	// per-partition results of every step (PipelineResult.Partitions), as
	// JoinSpec.KeepPartitions does for joins.
	KeepPartitions bool
}

// PipelineStep reports one executed pairwise step of a pipeline.
type PipelineStep struct {
	// Build and Probe label the step's inputs: a catalog name, "inline[i]"
	// for the i-th declared inline source, or "step<t>" for the
	// intermediate of step t.
	Build, Probe string
	// BuildTuples and Probe Tuples are the input cardinalities; OutTuples
	// is the step's match count — and, for every step but the last, the
	// cardinality of the intermediate handed to the next step.
	BuildTuples, ProbeTuples int
	OutTuples                int64
	// Result is the full pairwise join result (the same Result a
	// stand-alone Join of the step's inputs returns, bit for bit).
	Result *core.Result
	// Plan is the planner's per-step decision when the pipeline runs auto.
	Plan *PlanInfo
}

// PipelineResult reports one executed pipeline.
type PipelineResult struct {
	// Order is the executed left-deep order as indices into the spec's
	// Sources; Ordered reports whether the cost-based orderer chose it
	// (false: declaration order, by request or for lack of statistics).
	Order   []int
	Ordered bool
	Steps   []PipelineStep
	// Final is the last step's Result; Final.Matches is the pipeline's
	// multi-way match count.
	Final *core.Result
	// TotalNS sums the simulated time of every step (the steps form a
	// serial chain: each consumes the previous step's output).
	TotalNS float64
	// IntermediateTuples and IntermediateBytes total every intermediate the
	// pipeline produced. Each step's matches are produced morsel-parallel
	// directly into the next step's build input, reserved transiently and
	// freed as soon as the consumer step has built from them, so at most
	// one intermediate is charged against the residency budget at a time.
	IntermediateTuples int64
	IntermediateBytes  int64
	// PeakIntermediateBytes is the high-water mark of the pipeline's
	// resident intermediate footprint — the largest single intermediate's
	// relation bytes (on a sharded service, summed over the concurrently
	// running partition chains).
	PeakIntermediateBytes int64
	// Replans counts mid-pipeline re-orderings: after a step whose observed
	// matches deviated from the orderer's estimate beyond the re-plan
	// threshold, the remaining steps were re-ordered around the true
	// cardinality. The final match count is unaffected; only the remaining
	// intermediates (and their costs) change. Only an unsharded engine's
	// chain sees global cardinalities, so only it re-plans.
	Replans int64
	// SpilledPartitions, SpillBytes and SpillNS aggregate the hybrid-hash
	// spill activity of the whole pipeline (see Result's fields of the same
	// names); SpillDepth is the deepest repartitioning level the spiller
	// reached (0 when nothing spilled).
	SpilledPartitions int64
	SpillBytes        int64
	SpillNS           float64
	SpillDepth        int
	// Partitions holds the raw per-partition breakdown when the pipeline
	// was submitted with PipelineSpec.KeepPartitions on a sharded service
	// (nil otherwise). A cluster router rebuilds each step's merged result
	// from these.
	Partitions *PipelinePartitions
}

// PipelinePartitions is the raw per-partition breakdown of a pipeline:
// what each grid partition's chain knows on its own. For each executed step
// t (0-based) and grid partition p, Steps[t][p] is partition p's pairwise
// result of that step and Plans[t][p] its planner decision (nil when the
// step was not auto-planned, met an empty side, or spilled). Merging
// Steps[t] over the grid (shard.Grid.Merge) yields exactly the pipeline's
// Steps[t].Result; the input cardinalities and intermediate totals follow
// from the merged steps (router.execPipeline). Peak and SpillDepth are each
// partition chain's resident peak and deepest repartitioning level.
type PipelinePartitions struct {
	Steps      [][]*core.Result
	Plans      [][]*PlanInfo
	Peak       []int64
	SpillDepth []int
}

// pipeSource is one resolved pipeline input: the router's record of a
// registered source, or nil for an inline one, and — on the in-process
// backend — its per-partition slices (pinned entries, or the inline
// relation's split).
type pipeSource struct {
	// name is the registered name, or "inline[i]" for the i-th declared
	// inline source; tuples the whole-relation cardinality.
	name   string
	tuples int
	rec    *shardedRel
	parts  []rel.Relation
	// counts is a registered source's ingest table as its pinned slices
	// hold it (catalog.Entry.Counts), in-process; the empty table
	// otherwise.
	counts rel.Counts
}

// pipeRel is the source as the join orderer sees it.
func (src *pipeSource) pipeRel() plan.PipeRel {
	pr := plan.PipeRel{Tuples: src.tuples}
	if src.rec != nil {
		pr.HeavyShare = src.rec.stats.HeavyShare
	}
	return pr
}

// pipeJob is a resolved pipeline awaiting execution.
type pipeJob struct {
	opt      core.Options
	auto     bool
	sources  []pipeSource
	declared bool
	// keep retains the raw per-partition step results
	// (PipelineSpec.KeepPartitions); wFirst overrides the first step's
	// planning workload (PipelineSpec.FirstWorkload).
	keep   bool
	wFirst *plan.Workload
	// order is the pipeline's global order, chosen at resolve time from the
	// full-relation statistics; execution on a grid of one may revise it in
	// place (mid-pipeline re-planning).
	order *pipeOrder
	// req is the wire request a cluster backend fans out.
	req api.PipelineRequest
}

// SubmitPipeline enqueues one multi-way pipeline as a single query: every
// named source is pinned up front and admission is all-or-nothing (a full
// queue rejects the pipeline whole, with every pin released), exactly as
// SubmitBatch treats its queries. The query's Result is the final step's
// Result; the per-step breakdown — including the planner's per-step
// decisions when Auto — is its Report's Pipeline.
func (s *Service) SubmitPipeline(ctx context.Context, spec PipelineSpec) (*Query, error) {
	spec.Opt.Pool = s.pool
	rs, err := s.router.resolvePipeline(spec)
	if err != nil {
		return nil, err
	}
	qs, err := s.submitResolved(ctx, []resolvedSpec{rs}, false)
	if err != nil {
		return nil, err
	}
	return qs[0], nil
}

// RunPipeline executes a pipeline synchronously, outside the admission
// layer — the engine facade's path; the caller bounds its own concurrency
// and provides the worker pool through spec.Opt.
func (s *Service) RunPipeline(ctx context.Context, spec PipelineSpec) (*PipelineResult, error) {
	rs, err := s.router.resolvePipeline(spec)
	if err != nil {
		return nil, err
	}
	defer rs.release()
	return s.router.execPipeline(ctx, rs.pipe)
}

// add folds one executed step's (merged) result into the pipeline's serial
// totals; the last step added is the pipeline's Final.
func (res *PipelineResult) add(r *core.Result) {
	res.TotalNS += r.TotalNS
	res.SpilledPartitions += r.SpilledPartitions
	res.SpillBytes += r.SpillBytes
	res.SpillNS += r.SpillNS
	res.Final = r
}
