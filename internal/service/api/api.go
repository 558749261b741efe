// Package api holds the JSON request and response types of the /v1 HTTP
// surface, shared by every process that speaks it: the apujoind daemon in
// both its roles (internal/httpapi serves these types over one
// service.Service) and, under apujoind -cluster, the router's cluster
// backend in internal/service, which builds them for the remote shard
// servers and decodes their responses.
//
// The wire contract is documented in docs/API.md. Everything here follows
// the unified envelope: success responses nest their payload under
// {"result": …} and failures return {"error": {"code", "message"}}; the
// envelope itself is written by internal/httpapi, not by these types.
//
// The Partition* types are the cluster protocol's raw transport: a shard
// server asked for per_partition results returns each fixed grid
// partition's untouched Result vector, and the router merges them locally
// with shard.MergeResults in fixed partition order. Raw nanosecond floats
// cross the wire — never pre-summed or millisecond-rounded values —
// because float addition is not associative and encoding/json round-trips
// float64 exactly; that is what keeps cluster results bit-identical to a
// single-process sharded engine.
package api

import (
	"apujoin/internal/core"
	"apujoin/internal/plan"
)

// MaxPipelineSources bounds how many sources one pipeline may join: each
// extra source is a full pairwise join plus one more intermediate.
const MaxPipelineSources = 16

// JoinRequest is the JSON body of POST /v1/join and each element of a
// batch. A join either references registered relations (r_name/s_name —
// both or neither) or carries an inline generation spec; absent inline
// fields pick the paper's defaults (SHJ, PL, coupled, 1M ⋈ 1M uniform,
// selectivity 1). Sel and Seed are pointers so an explicit 0 — a valid
// selectivity and a valid seed — is distinguishable from "not set".
type JoinRequest struct {
	// RName/SName reference relations registered via POST /v1/relations;
	// the service pins both for the query's lifetime and reuses their
	// ingest-time statistics in the planner fingerprint.
	RName string `json:"r_name,omitempty"`
	SName string `json:"s_name,omitempty"`

	Algo      string   `json:"algo,omitempty"`   // shj | phj | auto (planner decides algo+scheme)
	Scheme    string   `json:"scheme,omitempty"` // cpu | gpu | ol | dd | pl | basicunit | coarsepl; ignored with algo=auto
	Arch      string   `json:"arch,omitempty"`   // coupled | discrete
	R         int      `json:"r,omitempty"`      // build tuples (inline generation)
	S         int      `json:"s,omitempty"`      // probe tuples (inline generation)
	Sel       *float64 `json:"sel,omitempty"`    // selectivity [0,1]
	Skew      string   `json:"skew,omitempty"`   // uniform | low | high
	Seed      *int64   `json:"seed,omitempty"`
	Separate  bool     `json:"separate,omitempty"`
	Grouping  bool     `json:"grouping,omitempty"`
	Delta     float64  `json:"delta,omitempty"`
	CountOnly bool     `json:"count_only,omitempty"`
	// Wait blocks the request until the query finishes and returns the
	// full result; otherwise the response carries the query id to poll.
	Wait bool `json:"wait,omitempty"`

	// PerPartition asks a sharded server to include the raw per-partition
	// result vector (all shard.Partitions slots) in the response — the
	// cluster protocol's transport. Rejected by unsharded servers.
	PerPartition bool `json:"per_partition,omitempty"`
	// Workload, when set with algo=auto, overrides the planner's workload
	// buckets for the pair. The cluster router computes them from the
	// full-relation ingest statistics it measured centrally, so shard
	// servers — which each hold only a subset of the tuples — fingerprint
	// plans exactly as a single-process engine would.
	Workload *plan.Workload `json:"workload,omitempty"`
}

// PipelineSource is one input of POST /v1/pipeline: a registered relation
// (name) or an inline build-relation generator spec (n, skew, seed,
// key_range — keys a permutation of [1, key_range], so sources generated
// over the same key range join meaningfully).
type PipelineSource struct {
	Name string `json:"name,omitempty"`

	N        int    `json:"n,omitempty"`
	Skew     string `json:"skew,omitempty"`
	Seed     *int64 `json:"seed,omitempty"`
	KeyRange int    `json:"key_range,omitempty"`
}

// PipelineRequest is the JSON body of POST /v1/pipeline: a multi-way join
// over 2..MaxPipelineSources sources executed as a chain of pairwise
// joins. The per-step options mirror /v1/join; algo=auto lets the planner
// decide each step. Unless declared_order is set, the cost-based orderer
// picks the cheapest left-deep order from the catalog's ingest statistics
// (inline sources carry none and force declaration order).
type PipelineRequest struct {
	Sources       []PipelineSource `json:"sources"`
	Algo          string           `json:"algo,omitempty"`
	Scheme        string           `json:"scheme,omitempty"`
	Arch          string           `json:"arch,omitempty"`
	DeclaredOrder bool             `json:"declared_order,omitempty"`
	Separate      bool             `json:"separate,omitempty"`
	Grouping      bool             `json:"grouping,omitempty"`
	Delta         float64          `json:"delta,omitempty"`
	CountOnly     bool             `json:"count_only,omitempty"`
	Wait          bool             `json:"wait,omitempty"`

	// PerPartition asks a sharded server for the raw per-partition,
	// per-step result vectors (the cluster protocol); rejected by
	// unsharded servers.
	PerPartition bool `json:"per_partition,omitempty"`
	// FirstWorkload, with algo=auto, overrides the first step's planner
	// workload buckets — the cluster router's full-relation statistics for
	// the pair (order[0], order[1]). Later steps build from intermediates
	// and measure their own partitions, exactly as in-process sharding
	// does.
	FirstWorkload *plan.Workload `json:"first_workload,omitempty"`
}

// BatchRequest is the JSON body of POST /v1/batch: many joins admitted in
// one transaction (all-or-nothing; a full queue rejects the whole batch).
type BatchRequest struct {
	Queries []JoinRequest `json:"queries"`
	// Wait blocks until every query of the batch finishes.
	Wait bool `json:"wait,omitempty"`
}

// BatchResponse reports a batch, element i describing Queries[i].
type BatchResponse struct {
	Queries []JoinResponse `json:"queries"`
}

// RelationRequest is the JSON body of POST /v1/relations. Exactly one of
// three forms: a build-relation generator spec (n, skew, seed, key_range),
// a probe generator spec against a registered build relation (probe_of,
// sel plus the generator fields), or a bulk upload (keys, and optional
// rids, which the server checks against keys and then drops).
type RelationRequest struct {
	Name string `json:"name"`

	// Generator spec.
	N        int    `json:"n,omitempty"`
	Skew     string `json:"skew,omitempty"`
	Seed     *int64 `json:"seed,omitempty"`
	KeyRange int    `json:"key_range,omitempty"`

	// Probe spec: generate against this registered build relation with
	// the given match selectivity.
	ProbeOf string   `json:"probe_of,omitempty"`
	Sel     *float64 `json:"sel,omitempty"`

	// Bulk upload. Keys carries no omitempty on purpose: an explicit empty
	// array is a valid upload of zero tuples (the cluster router sends one
	// for a shard whose owned partitions happen to be empty), and omitting
	// the field would flip the request into a generator spec.
	Keys []int32 `json:"keys"`
	RIDs []int32 `json:"rids,omitempty"`
}

// JoinResponse reports a finished (or submitted) query.
type JoinResponse struct {
	ID       int64           `json:"id"`
	State    string          `json:"state"`
	Matches  int64           `json:"matches,omitempty"`
	TotalMS  float64         `json:"total_ms,omitempty"`
	Phases   *PhaseReport    `json:"phases,omitempty"`
	Plan     *PlanReport     `json:"plan,omitempty"`
	Pipeline *PipelineReport `json:"pipeline,omitempty"`
	WallMS   float64         `json:"wall_ms,omitempty"`
	Error    string          `json:"error,omitempty"`

	// Partitions is the raw per-partition result vector of a sharded join
	// asked for per_partition results, indexed by fixed grid partition.
	Partitions []PartitionResult `json:"partitions,omitempty"`
}

// PlanReport is the planner's decision for an algo=auto query.
type PlanReport struct {
	Algo        string  `json:"algo"`
	Scheme      string  `json:"scheme"`
	Cache       string  `json:"cache"` // "hit" | "miss"
	PredictedMS float64 `json:"predicted_ms"`
}

// PhaseReport breaks a join's simulated time down by phase, in
// milliseconds.
type PhaseReport struct {
	PartitionMS float64 `json:"partition_ms"`
	BuildMS     float64 `json:"build_ms"`
	ProbeMS     float64 `json:"probe_ms"`
	MergeMS     float64 `json:"merge_ms"`
	TransferMS  float64 `json:"transfer_ms"`
}

// PipelineStepReport is one executed pairwise step of a pipeline response.
type PipelineStepReport struct {
	Build       string      `json:"build"`
	Probe       string      `json:"probe"`
	BuildTuples int         `json:"build_tuples"`
	ProbeTuples int         `json:"probe_tuples"`
	Matches     int64       `json:"matches"`
	TotalMS     float64     `json:"total_ms"`
	Plan        *PlanReport `json:"plan,omitempty"`
}

// PipelineReport is the pipeline section of a JoinResponse: the executed
// order and the per-step breakdown. The enclosing response's matches is the
// final multi-way count and its total_ms sums the serial chain.
type PipelineReport struct {
	Sources            int                  `json:"sources"`
	Ordered            bool                 `json:"ordered"`
	Order              []int                `json:"order"`
	Steps              []PipelineStepReport `json:"steps"`
	IntermediateTuples int64                `json:"intermediate_tuples"`
	IntermediateBytes  int64                `json:"intermediate_bytes"`
	// PeakIntermediateBytes is the pipeline's resident intermediate
	// high-water mark: at most one transient intermediate per chain.
	PeakIntermediateBytes int64 `json:"peak_intermediate_bytes"`
	// Replans counts mid-pipeline re-orderings of the remaining steps;
	// SpilledPartitions and SpillBytes describe hybrid-hash spilling under
	// memory pressure (partitions routed through the simulated spill store
	// and the bytes written to it). All zero when the pipeline ran fully
	// resident under its planned order.
	Replans           int64 `json:"replans,omitempty"`
	SpilledPartitions int64 `json:"spilled_partitions,omitempty"`
	SpillBytes        int64 `json:"spill_bytes,omitempty"`

	// Partitions carries the raw per-partition, per-step results of a
	// sharded pipeline asked for per_partition results.
	Partitions *PipelineParts `json:"partitions,omitempty"`
}

// PipelineParts is the raw per-partition transport of a sharded pipeline:
// what each fixed grid partition's chain knows on its own — every step's
// untouched result and plan, the chain's resident peak and spill depth.
// The cluster router reassembles the global pipeline report from these
// exactly as the in-process sharded engine does — per-step merges in fixed
// partition order, gauges summed across partitions — and derives the tuple
// counts from the merged steps, so none travel.
type PipelineParts struct {
	// Steps[t][p] is partition p's raw result of pipeline step t+1.
	Steps [][]PartitionStep `json:"steps"`
	// PeakIntermediateBytes is each partition chain's resident peak and
	// SpillDepth its deepest recursive repartitioning level (0 when the
	// chain ran resident), indexed by partition.
	PeakIntermediateBytes []int64 `json:"peak_intermediate_bytes"`
	SpillDepth            []int   `json:"spill_depth"`
}

// PartitionStep is one partition's slice of one pipeline step.
type PartitionStep struct {
	Result PartitionResult `json:"result"`
	// Plan is the partition's planner decision for the step (algo=auto and
	// the partition did not spill), raw nanoseconds — the cluster router
	// aggregates the per-partition plans exactly as the in-process sharded
	// engine does, which needs bit-exact floats, not the display PlanReport.
	Plan *PartitionPlan `json:"plan,omitempty"`
}

// PartitionPlan is the raw wire form of one partition's per-step planner
// decision. PredictedNS stays in nanoseconds: the cluster router sums the
// per-partition predictions in fixed partition order, and only the final
// aggregate is ever converted for display. In process the service keeps
// its plan decisions in this type too (service.PlanInfo).
type PartitionPlan struct {
	Algo        string  `json:"algo"`
	Scheme      string  `json:"scheme"`
	CacheHit    bool    `json:"cache_hit"`
	PredictedNS float64 `json:"predicted_ns"`
}

// PartitionResult is the raw wire form of one partition's core.Result,
// carrying exactly the fields shard.MergeResults sums plus the labels it
// copies from partition 0. Times stay raw float64 nanoseconds (JSON
// round-trips them bit-exactly) and the enum labels cross as their integer
// values — Scheme.String() names like "CPU-only" do not round-trip
// through core.ParseScheme. Per-partition artifacts the merge leaves zero
// (ratio vectors, step series, pilot profiles) are not transported.
type PartitionResult struct {
	Algo   int `json:"algo"`
	Scheme int `json:"scheme"`
	Arch   int `json:"arch"`

	Matches int64 `json:"matches"`

	PartitionNS    float64 `json:"partition_ns"`
	BuildNS        float64 `json:"build_ns"`
	ProbeNS        float64 `json:"probe_ns"`
	MergeNS        float64 `json:"merge_ns"`
	TransferNS     float64 `json:"transfer_ns"`
	TotalNS        float64 `json:"total_ns"`
	EstimatedNS    float64 `json:"estimated_ns"`
	LockOverheadNS float64 `json:"lock_overhead_ns"`
	EstPartitionNS float64 `json:"est_partition_ns"`
	EstBuildNS     float64 `json:"est_build_ns"`
	EstProbeNS     float64 `json:"est_probe_ns"`

	CacheAccesses int64 `json:"cache_accesses"`
	CacheMisses   int64 `json:"cache_misses"`
	ZeroCopyBytes int64 `json:"zero_copy_bytes"`

	SpilledPartitions int64   `json:"spilled_partitions,omitempty"`
	SpillBytes        int64   `json:"spill_bytes,omitempty"`
	SpillNS           float64 `json:"spill_ns,omitempty"`

	Allocs        int64 `json:"allocs"`
	AllocWords    int64 `json:"alloc_words"`
	GlobalAtomics int64 `json:"global_atomics"`
	LocalOps      int64 `json:"local_ops"`
	WastedWords   int64 `json:"wasted_words"`
}

// FromResult projects a core.Result onto its raw wire form.
func FromResult(r *core.Result) PartitionResult {
	return PartitionResult{
		Algo:              int(r.Algo),
		Scheme:            int(r.Scheme),
		Arch:              int(r.Arch),
		Matches:           r.Matches,
		PartitionNS:       r.PartitionNS,
		BuildNS:           r.BuildNS,
		ProbeNS:           r.ProbeNS,
		MergeNS:           r.MergeNS,
		TransferNS:        r.TransferNS,
		TotalNS:           r.TotalNS,
		EstimatedNS:       r.EstimatedNS,
		LockOverheadNS:    r.LockOverheadNS,
		EstPartitionNS:    r.EstPartitionNS,
		EstBuildNS:        r.EstBuildNS,
		EstProbeNS:        r.EstProbeNS,
		CacheAccesses:     r.Cache.Accesses,
		CacheMisses:       r.Cache.Misses,
		ZeroCopyBytes:     r.ZeroCopyBytes,
		SpilledPartitions: r.SpilledPartitions,
		SpillBytes:        r.SpillBytes,
		SpillNS:           r.SpillNS,
		Allocs:            r.AllocStats.Allocs,
		AllocWords:        r.AllocStats.Words,
		GlobalAtomics:     r.AllocStats.GlobalAtomics,
		LocalOps:          r.AllocStats.LocalOps,
		WastedWords:       r.AllocStats.WastedWords,
	}
}

// ToResult rebuilds the core.Result a PartitionResult transports. Only the
// merge-relevant fields are populated — exactly what shard.MergeResults
// reads — so merging rebuilt partition results yields the same merged
// Result, bit for bit, as merging the originals.
func (pr PartitionResult) ToResult() *core.Result {
	r := &core.Result{
		Algo:           core.Algo(pr.Algo),
		Scheme:         core.Scheme(pr.Scheme),
		Arch:           core.Arch(pr.Arch),
		Matches:        pr.Matches,
		TotalNS:        pr.TotalNS,
		EstimatedNS:    pr.EstimatedNS,
		LockOverheadNS: pr.LockOverheadNS,
		EstPartitionNS: pr.EstPartitionNS,
		EstBuildNS:     pr.EstBuildNS,
		EstProbeNS:     pr.EstProbeNS,
		ZeroCopyBytes:  pr.ZeroCopyBytes,
	}
	r.SpilledPartitions = pr.SpilledPartitions
	r.SpillBytes = pr.SpillBytes
	r.SpillNS = pr.SpillNS
	r.PartitionNS = pr.PartitionNS
	r.BuildNS = pr.BuildNS
	r.ProbeNS = pr.ProbeNS
	r.MergeNS = pr.MergeNS
	r.TransferNS = pr.TransferNS
	r.Cache.Accesses = pr.CacheAccesses
	r.Cache.Misses = pr.CacheMisses
	r.AllocStats.Allocs = pr.Allocs
	r.AllocStats.Words = pr.AllocWords
	r.AllocStats.GlobalAtomics = pr.GlobalAtomics
	r.AllocStats.LocalOps = pr.LocalOps
	r.AllocStats.WastedWords = pr.WastedWords
	return r
}

// AlgoName returns the /v1 wire name of an algorithm, parseable by
// core.ParseAlgo. The String() forms are display names and do not all
// round-trip; request construction must use these.
func AlgoName(a core.Algo) string {
	if a == core.PHJ {
		return "phj"
	}
	return "shj"
}

// SchemeName returns the /v1 wire name of a scheme, parseable by
// core.ParseScheme.
func SchemeName(s core.Scheme) string {
	switch s {
	case core.CPUOnly:
		return "cpu"
	case core.GPUOnly:
		return "gpu"
	case core.OL:
		return "ol"
	case core.DD:
		return "dd"
	case core.BasicUnit:
		return "basicunit"
	case core.CoarsePL:
		return "coarsepl"
	default:
		return "pl"
	}
}

// ArchName returns the /v1 wire name of an architecture, parseable by
// core.ParseArch.
func ArchName(a core.Arch) string {
	if a == core.Discrete {
		return "discrete"
	}
	return "coupled"
}
