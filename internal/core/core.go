// Package core implements the paper's hash join variants on the simulated
// coupled CPU-GPU architecture: the simple hash join (SHJ) and the radix
// partitioned hash join (PHJ), each under the co-processing schemes of
// Sec. 3.2 — CPU-only, GPU-only, off-loading (OL), data dividing (DD),
// pipelined execution (PL) — plus the appendix's BasicUnit baseline and the
// coarse-grained step definition PHJ-PL' of Sec. 3.3.
//
// A Run executes the real join (the match count is exact and verified
// against a naive join in the tests) while the device model produces the
// simulated elapsed times; the cost model picks the workload ratios.
package core

import (
	"fmt"
	"strings"

	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/device"
	"apujoin/internal/mem"
	"apujoin/internal/sched"
)

// Algo selects the join algorithm.
type Algo int

const (
	// SHJ is the simple (no partition) hash join.
	SHJ Algo = iota
	// PHJ is the radix-partitioned hash join.
	PHJ
)

// String returns "SHJ" or "PHJ".
func (a Algo) String() string {
	if a == SHJ {
		return "SHJ"
	}
	return "PHJ"
}

// Scheme selects the co-processing scheme.
type Scheme int

const (
	// CPUOnly runs every step on the CPU.
	CPUOnly Scheme = iota
	// GPUOnly runs every step on the GPU.
	GPUOnly
	// OL off-loads each step entirely to the faster device.
	OL
	// DD divides every step's tuples with one ratio per phase.
	DD
	// PL picks an individual ratio per fine-grained step.
	PL
	// BasicUnit dynamically assigns coarse chunks to free devices
	// (appendix baseline).
	BasicUnit
	// CoarsePL is the coarse-grained step definition PHJ-PL' (Sec. 3.3):
	// after partitioning, one work item joins a whole partition pair with
	// its own private hash table. Only valid with Algo PHJ.
	CoarsePL
)

var schemeNames = [...]string{"CPU-only", "GPU-only", "OL", "DD", "PL", "BasicUnit", "PL'"}

// String returns the paper's scheme name.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Arch selects the architecture to run on.
type Arch int

const (
	// Coupled is the APU: shared memory, shared L2, no bus.
	Coupled Arch = iota
	// Discrete emulates a discrete CPU-GPU system by injecting PCI-e
	// transfer delays and forcing separate hash tables, exactly as the
	// paper emulates it (Sec. 5.1).
	Discrete
)

// String returns "coupled" or "discrete".
func (a Arch) String() string {
	if a == Coupled {
		return "coupled"
	}
	return "discrete"
}

// ParseAlgo parses the CLI/API name of an algorithm; the empty string
// selects SHJ. Shared by cmd/apujoin flags and the apujoind request
// decoder so the accepted vocabulary cannot drift.
func ParseAlgo(s string) (Algo, error) {
	switch strings.ToLower(s) {
	case "", "shj":
		return SHJ, nil
	case "phj":
		return PHJ, nil
	default:
		return 0, fmt.Errorf("core: unknown algo %q (shj | phj)", s)
	}
}

// ParseScheme parses the CLI/API name of a co-processing scheme; the empty
// string selects PL.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(s) {
	case "cpu":
		return CPUOnly, nil
	case "gpu":
		return GPUOnly, nil
	case "ol":
		return OL, nil
	case "dd":
		return DD, nil
	case "", "pl":
		return PL, nil
	case "basicunit":
		return BasicUnit, nil
	case "coarsepl":
		return CoarsePL, nil
	default:
		return 0, fmt.Errorf("core: unknown scheme %q (cpu | gpu | ol | dd | pl | basicunit | coarsepl)", s)
	}
}

// ParseArch parses the CLI/API name of an architecture; the empty string
// selects Coupled.
func ParseArch(s string) (Arch, error) {
	switch strings.ToLower(s) {
	case "", "coupled":
		return Coupled, nil
	case "discrete":
		return Discrete, nil
	default:
		return 0, fmt.Errorf("core: unknown arch %q (coupled | discrete)", s)
	}
}

// Options configures a join run. The zero value plus R and S is a valid
// coupled-architecture SHJ-PL configuration; SetDefaults fills the rest.
type Options struct {
	Algo   Algo
	Scheme Scheme
	Arch   Arch

	// Plan, when non-nil, is a precomputed execution plan (BuildPlan or
	// the internal/plan cache): it overrides Algo/Scheme/Arch, supplies
	// the pilot profiles so Run skips its own pilot, and fixes the
	// workload ratios so the per-phase grid searches are skipped too.
	// Caller-set Fixed* overrides still win over the plan's ratios. A
	// plan is read-only to Run and safe to share across concurrent runs.
	Plan *Plan

	// SeparateTables builds one hash table per device and merges after the
	// build phase. The default is the shared table on the coupled
	// architecture; Discrete always uses separate tables (the devices have
	// separate memories there).
	SeparateTables bool

	// Workers is the number of host goroutines the morsel-driven runtime
	// uses to execute kernel ranges concurrently; 0 selects GOMAXPROCS and
	// negative values are rejected by Validate. The work decomposition is
	// independent of the worker count, so match counts and every simulated
	// time are identical for any Workers value — parallelism changes host
	// wall-clock only. Ignored when Pool is set.
	Workers int

	// Pool, when non-nil, is a resident worker pool shared across runs —
	// the multi-query service layer (internal/service) injects one so
	// concurrent queries draw from the same fixed set of host workers.
	// When nil, the run creates a transient pool of Workers goroutines and
	// closes it on return. Sharing a pool never changes results: the work
	// decomposition is per-query and worker-independent.
	Pool *sched.Pool

	// Alloc configures the software memory allocator (Sec. 3.3).
	Alloc alloc.Config

	// Grouping enables the workload-divergence grouping optimization with
	// Groups workload levels.
	Grouping bool
	Groups   int

	// Delta is the ratio-grid granularity δ (default 0.02). FullGrid
	// forces the paper's exhaustive search instead of the refined search.
	Delta    float64
	FullGrid bool

	// RadixTargetBytes is the partition-pair cache budget the pass planner
	// aims for (PHJ only).
	RadixTargetBytes int64

	// CountOnly leaves the join output uncharged: only matches are
	// counted. By default each matching rid pair is charged as the paper's
	// implementation writes it ("simply outputs the matching rid pair"): its
	// bytes and its request to the software allocator. No pair is written
	// either way; nothing reads one.
	CountOnly bool

	// PilotItems is the sample size of the profiling pilot run.
	PilotItems int

	// BasicUnit chunk sizes (tuples), tuned per device.
	CPUChunk, GPUChunk int

	// Fixed*, when non-nil, override the scheme's ratio choice for that
	// phase — the knob the cost-model-evaluation experiments sweep
	// (Figs. 7 and 8). FixedPartition applies to every radix pass.
	FixedPartition sched.Ratios
	FixedBuild     sched.Ratios
	FixedProbe     sched.Ratios

	// hashShift skips the low hash bits an outer partitioning already
	// consumed; RunExternalCtx sets it for the per-pair sub-joins, which
	// it never plans.
	hashShift uint

	// Device profiles; default the A8-3870K.
	CPU, GPU device.Profile

	// Cache is the shared L2 model.
	Cache mem.CacheModel

	// ZeroCopy is the zero-copy buffer tracking; nil allocates a fresh
	// 512 MB buffer per run.
	ZeroCopy *mem.ZeroCopy
}

// SetDefaults fills unset fields with the paper's defaults.
func (o *Options) SetDefaults() {
	if o.Groups <= 0 {
		o.Groups = 32
	}
	if o.Delta <= 0 {
		o.Delta = cost.DefaultDelta
	}
	if o.RadixTargetBytes <= 0 {
		o.RadixTargetBytes = mem.DefaultL2Bytes / 8
	}
	if o.PilotItems <= 0 {
		o.PilotItems = 1 << 16
	}
	if o.CPUChunk <= 0 {
		o.CPUChunk = 1 << 14
	}
	if o.GPUChunk <= 0 {
		o.GPUChunk = 1 << 16
	}
	if o.CPU.Cores == 0 {
		o.CPU = device.APUCPU()
	}
	if o.GPU.Cores == 0 {
		o.GPU = device.APUGPU()
	}
	if o.Cache.SizeBytes == 0 {
		o.Cache = mem.NewCacheModel()
	}
	if o.Alloc.BlockBytes == 0 {
		o.Alloc.BlockBytes = alloc.DefaultBlockBytes
	}
	if o.ZeroCopy == nil {
		o.ZeroCopy = mem.NewZeroCopy()
	}
	if o.Arch == Discrete {
		// Separate device memories: a shared table is impossible.
		o.SeparateTables = true
	}
}

// Validate rejects inconsistent configurations. A zero Delta is unset
// (SetDefaults picks the paper's); any other must lie in
// [cost.MinDelta, 1].
func (o *Options) Validate() error {
	if o.Scheme == CoarsePL && o.Algo != PHJ {
		return fmt.Errorf("core: CoarsePL (PHJ-PL') requires Algo PHJ")
	}
	if o.Delta != 0 && !(o.Delta >= cost.MinDelta && o.Delta <= 1) {
		return fmt.Errorf("core: delta %v out of [%v,1]", o.Delta, cost.MinDelta)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d (0 selects GOMAXPROCS)", o.Workers)
	}
	return nil
}

// Breakdown decomposes a join's simulated elapsed time by phase, matching
// the stacked bars of the paper's Figs. 3 and 15.
type Breakdown struct {
	PartitionNS float64
	BuildNS     float64
	ProbeNS     float64
	MergeNS     float64
	TransferNS  float64 // PCI-e, discrete architecture only
}

// TotalNS sums the breakdown.
func (b Breakdown) TotalNS() float64 {
	return b.PartitionNS + b.BuildNS + b.ProbeNS + b.MergeNS + b.TransferNS
}

// PhaseRatios records the workload ratios actually used.
type PhaseRatios struct {
	// Partition holds one ratio vector per radix pass (PHJ).
	Partition []sched.Ratios
	Build     sched.Ratios
	Probe     sched.Ratios
}

// CacheStats aggregates the modeled L2 behaviour of a run.
type CacheStats struct {
	Accesses int64
	Misses   int64
}

// MissRatio returns Misses/Accesses (0 when no accesses).
func (c CacheStats) MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Result reports one join run.
type Result struct {
	Algo   Algo
	Scheme Scheme
	Arch   Arch

	// Matches is the exact number of matching (r,s) pairs.
	Matches int64

	Breakdown
	// TotalNS is the simulated elapsed time (sum of phase times; phases
	// are separated by barriers).
	TotalNS float64

	// EstimatedNS is the cost model's prediction at the chosen ratios
	// (0 for schemes the model does not cover, e.g. BasicUnit).
	EstimatedNS float64
	// LockOverheadNS is max(0, TotalNS−EstimatedNS), the paper's
	// back-of-the-envelope latch overhead (Sec. 5.4).
	LockOverheadNS float64

	// EstPartitionNS / EstBuildNS / EstProbeNS split EstimatedNS by phase.
	EstPartitionNS float64
	EstBuildNS     float64
	EstProbeNS     float64

	Ratios PhaseRatios
	Cache  CacheStats

	// Steps records the simulated per-step times of every executed series
	// (partition passes of R, then S, then build, then probe), feeding the
	// per-step unit cost and ratio reports (Figs. 4–6).
	Steps []StepTiming

	// Profiles give the calibrated per-step unit costs from the pilot.
	PartitionProfile cost.SeriesProfile
	BuildProfile     cost.SeriesProfile
	ProbeProfile     cost.SeriesProfile

	// BasicUnitShares holds the CPU share per phase for the BasicUnit
	// scheme (partition, build, probe order; SHJ omits partition).
	BasicUnitShares []float64

	// ZeroCopyBytes is the footprint charged to the zero-copy buffer.
	ZeroCopyBytes int64

	// SpilledPartitions, SpillBytes and SpillNS report hybrid-hash spill
	// activity attributed to this result: partitions whose inputs
	// round-tripped the simulated spill store, the bytes written, and the
	// simulated I/O time (already included in TotalNS). A plain in-memory
	// join leaves them zero; the service layer's spilled pipeline hand-off
	// fills them on the first step executed past the overflow.
	SpilledPartitions int64
	SpillBytes        int64
	SpillNS           float64

	// AllocStats aggregates software-allocator activity.
	AllocStats alloc.Stats
}

// StepTiming is the simulated timing of one executed step.
type StepTiming struct {
	Phase string
	ID    sched.StepID
	Items int
	Ratio float64
	// CPUNS/GPUNS are raw step times; the delays are the pipelined stalls
	// of Eqs. 4 and 5.
	CPUNS, GPUNS           float64
	DelayCPUNS, DelayGPUNS float64
}
