package apujoin

import (
	"context"

	"apujoin/internal/service"
)

// Pipeline describes a multi-way join over N ≥ 2 sources on the shared key
// attribute, executed as a chain of the engine's pairwise joins: the first
// two sources of the chosen order join first, and every later source
// probes the previous step's intermediate (a left-deep plan).
//
// Intermediates are streamed: each step's matches are produced
// morsel-parallel directly into the next step's build input, their bytes
// reserved transiently against the engine's residency budget and freed as
// soon as the consumer step has built from them — at most one intermediate
// is resident at a time, and none is registered (no catalog statistics are
// built for it). An intermediate the budget cannot hold does not fail the
// pipeline: the remaining chain spills — hybrid-hash partitioned through a
// simulated spill store, as many partitions resident as the budget allows
// — and completes with the same matches, reported by the PipelineResult's
// SpilledPartitions/SpillBytes/SpillNS/SpillDepth. A step with an empty
// side joins to nothing and is skipped: it reports a zero Result and hands
// an empty intermediate on.
//
// Unless DeclaredOrder is set, a greedy cost-based orderer picks the
// cheapest left-deep order from the catalog's ingest-time skew and
// selectivity statistics; a pipeline with any Inline source has no
// statistics for the orderer and runs in declaration order. Mid-pipeline,
// a step whose observed matches deviate from the orderer's estimate by
// more than the estimate itself triggers a re-plan of the remaining steps
// (PipelineResult.Replans counts them). Neither ordering, re-planning nor
// spilling ever changes the final match count.
//
//	pr, err := eng.JoinPipeline(ctx, apujoin.Pipeline{Sources: []apujoin.Source{
//		apujoin.Ref("orders"), apujoin.Ref("lineitem"), apujoin.Ref("returns"),
//	}}, apujoin.WithAuto())
//	fmt.Println(pr.Final.Matches, pr.Order, pr.PeakIntermediateBytes)
type Pipeline struct {
	// Sources are the pipeline's inputs (Ref or Inline), N ≥ 2.
	Sources []Source
	// DeclaredOrder skips the cost-based orderer and joins the sources
	// exactly as declared.
	DeclaredOrder bool
}

// PipelineResult reports one executed pipeline: the chosen order, every
// pairwise step's full Result (and plan decision under WithAuto), the
// final Result whose Matches is the multi-way count, and the intermediate
// footprint. The result is bit-identical for any worker count and to
// executing the steps one at a time by hand in the same order.
type PipelineResult = service.PipelineResult

// PipelineStep is one executed pairwise step of a PipelineResult.
type PipelineStep = service.PipelineStep

// JoinPipeline executes a multi-way join pipeline on the engine. Options
// configure every pairwise step exactly as in Join; WithAuto plans each
// step through the engine's shared plan cache (a first step over two
// named sources plans from their ingest-time statistics). JoinPipeline is synchronous and runs outside the service
// admission layer, like Join; apujoind's POST /v1/pipeline layers bounded
// admission on the same primitives.
//
// On a sharded engine (WithShards) the chosen order is global — computed
// once from the full-relation statistics — and each fixed hash partition
// then runs the whole chain independently before the deterministic
// per-step merge; every reported number, including PeakIntermediateBytes,
// is bit-identical for any worker count. Per-step Plan reports aggregate
// the per-partition planner decisions (representative algo/scheme,
// predictions summed in partition order, CacheHit only when every planned
// partition hit). Sharded pipelines do not re-plan mid-query — the global
// order is part of the merge contract.
func (e *Engine) JoinPipeline(ctx context.Context, p Pipeline, opts ...JoinOption) (*PipelineResult, error) {
	cfg := applyJoinOptions(opts)
	spec := service.PipelineSpec{
		Opt:           cfg.opt,
		Auto:          cfg.auto,
		DeclaredOrder: p.DeclaredOrder,
	}
	for _, src := range p.Sources {
		spec.Sources = append(spec.Sources, service.PipelineSource{Name: src.name, Rel: src.rel})
	}
	e.injectPool(&spec.Opt)
	return e.svc.RunPipeline(ctx, spec)
}
