// Package plan is the adaptive planner in front of the join engine: it
// fingerprints a workload (device pair, relation sizes, tuple widths and
// measured skew/selectivity buckets), builds the cheapest full execution
// plan on a cache miss — one pilot run plus the cost-model optimizers over
// both algorithms and every applicable co-processing scheme, via
// core.BuildPlan — and memoizes the plan in a bounded LRU so subsequent
// queries with the same fingerprint skip the pilot and the grid searches
// entirely.
//
// The determinism contract extends through the planner: the same
// fingerprint always maps to the same plan (core.BuildPlan is
// deterministic and ties break in a fixed candidate order), and the same
// plan injected into the same query yields bit-identical results, so
// cache mediation is invisible in every simulated number.
package plan

import (
	"math"

	"apujoin/internal/alloc"
	"apujoin/internal/core"
	"apujoin/internal/mem"
	"apujoin/internal/rel"
)

// WorkloadSample bounds how many probe tuples the workload measurement
// touches; sampling is strided (rel.Relation.KeySample) so clustered or
// sorted inputs are covered evenly. The build relation is scanned once
// (cheap next to a pilot) so the selectivity measurement is exact
// membership, not an estimate over a second sample. Exported so the
// relation catalog samples at the identical positions at ingest and its
// precomputed buckets equal the per-query measurement bit for bit.
const WorkloadSample = 4096

// Skew-bucket thresholds on the sampled heavy-hitter share, placed between
// the paper's workload classes (uniform, s=10 low skew, s=25 high skew).
const (
	skewLowThreshold  = 0.05
	skewHighThreshold = 0.175
)

// selBuckets is the selectivity quantization: round(sel × selBuckets)
// yields buckets wide enough (1/8) that sampling noise on 4Ki probes
// cannot flap a bucket unless the true selectivity sits on a boundary.
const selBuckets = 8

// Fingerprint identifies a workload shape for plan reuse. Two queries with
// equal fingerprints get the same plan: the fields cover everything
// core.BuildPlan consumes — the device pair and architecture, the planning
// knobs that shape profiles and searches, the relation sizes and tuple
// widths, and the measured distribution buckets. Data seeds and worker
// counts are deliberately absent: they change neither profiles nor chosen
// ratios. The struct is comparable and used directly as the cache key.
type Fingerprint struct {
	CPU  string
	GPU  string
	Arch core.Arch
	// Cache is the shared-L2 model the candidates are priced against; its
	// three parameters shift every hit ratio the estimates use.
	Cache mem.CacheModel

	Separate  bool
	Grouping  bool
	Groups    int
	CountOnly bool
	FullGrid  bool
	// DeltaMilli is the ratio-grid granularity δ in thousandths, so the
	// key stays integral.
	DeltaMilli  int
	AllocKind   alloc.Strategy
	AllocBlock  int
	PilotItems  int
	RadixTarget int64

	R          int
	S          int
	TupleBytes int

	// Workload is the measured skew and selectivity buckets.
	Workload
}

// Workload is the measured (data-dependent) part of a fingerprint: the
// quantized probe-side skew and join selectivity. It is what the relation
// catalog precomputes at ingest so catalog-referenced queries fingerprint
// without touching the relations at all.
type Workload struct {
	// SkewBucket classifies the sampled heavy-hitter share of the probe
	// keys: 0 ≈ uniform, 1 ≈ the paper's low skew (s=10), 2 ≈ high skew
	// (s=25). SelBucket is round(measured selectivity × selBuckets).
	SkewBucket int `json:"skew_bucket"`
	SelBucket  int `json:"sel_bucket"`
}

// MeasureWorkload measures the workload buckets of one R ⋈ S pair: the
// probe-side skew (heavy-hitter share of a strided key sample) and the
// join selectivity (exact membership of the sampled probe keys in the full
// build key set, tested by scanning R once against the sample's own small
// key table — O(|R|) time, O(sample) memory). Quantization makes equivalent
// relations from different seeds land in the same bucket.
func MeasureWorkload(r, s rel.Relation) Workload {
	if s.Len() == 0 || r.Len() == 0 {
		return Workload{}
	}
	sample := s.KeySampleSlab(WorkloadSample)
	defer alloc.PutWords(sample)
	sampled := rel.CountKeys(sample)
	defer sampled.Release()
	inBuild := sampled.Restrict(r.Keys)
	defer inBuild.Release()
	return PairWorkload(sample, SkewBucketOf(heavyShare(sampled, len(sample))),
		func(k int32) bool { return inBuild.Of(k) > 0 })
}

// CountsWorkload is MeasureWorkload for a build side whose key counts are
// already in hand — a pipeline chain derives them for the hand-off anyway —
// so the build relation is not scanned again. Membership in build is
// membership in R, so the buckets equal MeasureWorkload's on the same pair.
func CountsWorkload(build rel.Counts, s rel.Relation) Workload {
	if s.Len() == 0 || build.Len() == 0 {
		return Workload{}
	}
	sample := s.KeySampleSlab(WorkloadSample)
	defer alloc.PutWords(sample)
	return PairWorkload(sample, SkewBucketOf(HeavyShare(sample)),
		func(k int32) bool { return build.Of(k) > 0 })
}

// HeavyShare returns the heaviest key's share of a probe key sample — the
// raw measurement behind the skew bucket, which the catalog also reports.
func HeavyShare(sample []int32) float64 {
	counts := rel.CountKeys(sample)
	defer counts.Release()
	return heavyShare(counts, len(sample))
}

func heavyShare(counts rel.Counts, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(counts.Max()) / float64(n)
}

// SkewBucketOf classifies a sample's heavy-hitter share (HeavyShare), with
// thresholds placed between the paper's workload classes.
func SkewBucketOf(share float64) int {
	switch {
	case share < skewLowThreshold:
		return 0
	case share < skewHighThreshold:
		return 1
	default:
		return 2
	}
}

// SelBucketOf quantizes the fraction of sampled probe keys for which
// contains reports membership in the build key set. Every path passes a
// lookup into a rel.Counts table over R's keys — the catalog's ingest-time
// table of the whole relation, a chain's table of its build side, or the
// inline path's table of the sampled keys R holds — and all report the same
// memberships, so the buckets agree.
func SelBucketOf(sample []int32, contains func(int32) bool) int {
	if len(sample) == 0 {
		return 0
	}
	matched := 0
	for _, k := range sample {
		if contains(k) {
			matched++
		}
	}
	return int(math.Round(float64(matched) / float64(len(sample)) * selBuckets))
}

// noBuffer stands in for the zero-copy buffer while OfWorkload defaults its
// options; nothing reads or writes it.
var noBuffer mem.ZeroCopy

// OfWorkload computes the fingerprint of one workload from its measured
// skew and selectivity buckets (MeasureWorkload). The relation catalog
// measures them once at ingest and every query of the pair reuses them. Options are defaulted
// first, so an explicit default and an unset field fingerprint alike.
func OfWorkload(r, s rel.Relation, opt core.Options, w Workload) Fingerprint {
	// No zero-copy buffer is part of the fingerprint: a placeholder keeps
	// SetDefaults from making one, so a fingerprint allocates nothing.
	opt.Plan, opt.ZeroCopy = nil, &noBuffer
	opt.SetDefaults()
	return Fingerprint{
		CPU:   opt.CPU.Name,
		GPU:   opt.GPU.Name,
		Arch:  opt.Arch,
		Cache: opt.Cache,

		Separate:    opt.SeparateTables,
		Grouping:    opt.Grouping,
		Groups:      opt.Groups,
		CountOnly:   opt.CountOnly,
		FullGrid:    opt.FullGrid,
		DeltaMilli:  int(math.Round(opt.Delta * 1000)),
		AllocKind:   opt.Alloc.Strategy,
		AllocBlock:  opt.Alloc.BlockBytes,
		PilotItems:  opt.PilotItems,
		RadixTarget: opt.RadixTargetBytes,

		R:          r.Len(),
		S:          s.Len(),
		TupleBytes: 8, // two int32 columns per tuple
		Workload:   w,
	}
}

// PairWorkload folds stored ingest-time statistics of a (build, probe)
// pair into the planner's workload buckets without touching either
// relation: the probe's stored skew bucket, plus the selectivity bucket of
// its stored key sample against the build side's membership test. The
// relation catalog and the sharded router both fingerprint through it, so
// their buckets agree with MeasureWorkload on the same data by
// construction — and with each other, which keeps plan-cache slots shared
// between inline, catalog-resident and sharded queries of the same shape.
func PairWorkload(probeSample []int32, probeSkewBucket int, buildContains func(int32) bool) Workload {
	return Workload{SkewBucket: probeSkewBucket, SelBucket: SelBucketOf(probeSample, buildContains)}
}
