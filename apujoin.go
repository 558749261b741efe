// Package apujoin is a library-level reproduction of "Revisiting
// Co-Processing for Hash Joins on the Coupled CPU-GPU Architecture"
// (He, Lu, He — VLDB 2013) in pure Go.
//
// The library implements the paper's simple and radix-partitioned hash
// joins decomposed into fine-grained per-tuple steps, the co-processing
// schemes that schedule those steps across a coupled CPU-GPU chip
// (off-loading, data dividing, pipelined execution, and the BasicUnit
// baseline), the cost model that picks the workload ratios, and every
// supporting substrate: a calibrated device model of the AMD A8-3870K APU,
// a shared-L2 cache model, the zero-copy buffer, an emulated PCI-e bus for
// discrete-architecture comparisons, and the software memory allocator.
//
// Joins execute for real — match counts are exact — while elapsed times
// are simulated by the device model, since this environment has no OpenCL
// runtime or APU silicon (see DESIGN.md for the substitution table).
//
// Quickstart — an Engine owns the resident worker pool, the plan cache
// and a relation catalog; data registers once and joins reference it by
// name:
//
//	eng := apujoin.NewEngine()
//	defer eng.Close()
//	eng.Register("orders", apujoin.Gen{N: 1 << 20, Seed: 1})
//	eng.RegisterProbe("lineitem", "orders", apujoin.Gen{N: 1 << 20, Seed: 2}, 1.0)
//	res, err := eng.Join(ctx, apujoin.Ref("orders"), apujoin.Ref("lineitem"),
//		apujoin.WithAlgo(apujoin.PHJ), apujoin.WithScheme(apujoin.PL))
//	fmt.Println(res.Matches, res.TotalNS)
//
// Every join goes through an Engine. A caller-held relation joins inline
// (Inline); a whole Options struct passes through WithOptions.
package apujoin

import (
	"apujoin/internal/core"
	"apujoin/internal/mem"
	"apujoin/internal/rel"
)

// Relation is a column-oriented relation of (RID, Key) int32 pairs.
type Relation = rel.Relation

// Gen generates the paper's synthetic datasets (uniform, low-skew s=10,
// high-skew s=25; probe selectivity control).
type Gen = rel.Gen

// Distribution selects the key distribution of generated data.
type Distribution = rel.Distribution

// Data distributions (paper Sec. 5.1).
const (
	Uniform  = rel.Uniform
	LowSkew  = rel.LowSkew
	HighSkew = rel.HighSkew
)

// ParseAlgo parses "shj" | "phj" (empty = SHJ).
func ParseAlgo(s string) (Algo, error) { return core.ParseAlgo(s) }

// ParseScheme parses "cpu" | "gpu" | "ol" | "dd" | "pl" | "basicunit" |
// "coarsepl" (empty = PL).
func ParseScheme(s string) (Scheme, error) { return core.ParseScheme(s) }

// ParseArch parses "coupled" | "discrete" (empty = Coupled).
func ParseArch(s string) (Arch, error) { return core.ParseArch(s) }

// ParseDistribution parses "uniform" | "low" | "high" (empty = Uniform).
func ParseDistribution(s string) (Distribution, error) { return rel.ParseDistribution(s) }

// Options configures a join run for WithOptions. The zero value is a
// coupled-architecture SHJ under the PL scheme, with the cost model tuning
// the ratios and every other field at its default.
type Options = core.Options

// Result reports a join run: exact match count, simulated phase breakdown,
// chosen ratios, cost-model estimate and cache statistics.
type Result = core.Result

// ExternalResult reports a join larger than the zero-copy buffer.
type ExternalResult = core.ExternalResult

// Algo selects the join algorithm; Scheme the co-processing scheme; Arch
// the architecture.
type (
	Algo   = core.Algo
	Scheme = core.Scheme
	Arch   = core.Arch
)

// Algorithms.
const (
	// SHJ is the simple (no partitioning) hash join.
	SHJ = core.SHJ
	// PHJ is the radix-partitioned hash join.
	PHJ = core.PHJ
)

// Co-processing schemes (paper Sec. 3.2 and appendix).
const (
	CPUOnly   = core.CPUOnly
	GPUOnly   = core.GPUOnly
	OL        = core.OL
	DD        = core.DD
	PL        = core.PL
	BasicUnit = core.BasicUnit
	CoarsePL  = core.CoarsePL
)

// Architectures.
const (
	// Coupled is the APU: shared memory and L2, no bus.
	Coupled = core.Coupled
	// Discrete emulates a discrete system with PCI-e transfers and
	// separate per-device hash tables.
	Discrete = core.Discrete
)

// ErrExceedsZeroCopy reports that the join does not fit the zero-copy
// buffer; use Engine.JoinExternal.
var ErrExceedsZeroCopy = core.ErrExceedsZeroCopy

// NaiveJoinCount is the reference match count (map-based), useful to
// verify results in examples and tests.
func NaiveJoinCount(r, s Relation) int64 {
	return rel.NaiveJoinCount(r, s)
}

// ZeroCopyBuffer returns a zero-copy buffer tracker of the given capacity
// in bytes for Options.ZeroCopy; capacity ≤ 0 yields the A8-3870K's
// 512 MB. Shrinking it forces the external-join path at smaller scales.
func ZeroCopyBuffer(capacity int64) *mem.ZeroCopy {
	z := mem.NewZeroCopy()
	if capacity > 0 {
		z.Capacity = capacity
	}
	return z
}
