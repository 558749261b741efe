package device

import "fmt"

// Region classifies which data structure a random memory access touches.
// The cache model assigns each region a hit ratio from its working-set size,
// so the accounting must keep regions separate.
type Region int

const (
	// RegionInput covers the R and S tuple columns (mostly streamed).
	RegionInput Region = iota
	// RegionHashTable covers bucket headers, key lists and rid lists.
	RegionHashTable
	// RegionPartition covers partition buffers during radix passes.
	RegionPartition
	// RegionOutput covers the join result buffer.
	RegionOutput
	// RegionScratch covers intermediate per-step arrays (PL intermediates).
	RegionScratch
	// NumRegions is the number of regions; keep it last.
	NumRegions
)

// String returns a short region name for diagnostics.
func (r Region) String() string {
	switch r {
	case RegionInput:
		return "input"
	case RegionHashTable:
		return "hashtable"
	case RegionPartition:
		return "partition"
	case RegionOutput:
		return "output"
	case RegionScratch:
		return "scratch"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Acct accumulates the work performed by a kernel over a batch of items.
// Kernels fill it while doing the real computation; a Device turns it into
// simulated time. The zero value is an empty account ready to use.
type Acct struct {
	// Items is the number of work items (tuples) processed.
	Items int64
	// Instr is the total instruction count across all items.
	Instr int64
	// SeqBytes counts sequentially streamed bytes (bandwidth-bound).
	SeqBytes int64
	// Rand counts random (latency-bound) accesses per region.
	Rand [NumRegions]int64
	// AtomicOps counts atomic read-modify-write operations.
	AtomicOps int64
	// AtomicTargets is the number of distinct memory locations the atomics
	// spread over (e.g. 1 for the basic allocator's global pointer,
	// #buckets for bucket latches). Zero means "same as AtomicOps"
	// (uncontended).
	AtomicTargets int64
	// LocalOps counts local-memory operations (work-group local pointers).
	LocalOps int64
	// AllocAtomics counts atomics on the software allocator's single global
	// pointer. They are kept apart from AtomicOps because they always
	// target one location and therefore serialize fully (the contention
	// the paper's optimized allocator exists to remove).
	AllocAtomics int64
	// DivMaxWork is Σ over wavefronts of (wavefrontSize × max item work);
	// DivWork is Σ item work. Their ratio is the SIMD divergence factor.
	// Both are zero when the kernel has homogeneous per-item work.
	DivMaxWork int64
	DivWork    int64
}

// Add accumulates b into a. Divergence sums add linearly because they are
// both plain sums over wavefronts/items.
func (a *Acct) Add(b Acct) {
	a.Items += b.Items
	a.Instr += b.Instr
	a.SeqBytes += b.SeqBytes
	for i := range a.Rand {
		a.Rand[i] += b.Rand[i]
	}
	a.AtomicOps += b.AtomicOps
	a.AtomicTargets += b.AtomicTargets
	a.LocalOps += b.LocalOps
	a.AllocAtomics += b.AllocAtomics
	a.DivMaxWork += b.DivMaxWork
	a.DivWork += b.DivWork
}

// DivergenceFactor returns the SIMD lockstep slowdown (≥ 1).
// It is 1 when no per-item work was recorded.
func (a Acct) DivergenceFactor() float64 {
	if a.DivWork <= 0 || a.DivMaxWork <= a.DivWork {
		return 1
	}
	return float64(a.DivMaxWork) / float64(a.DivWork)
}

// RandTotal returns the total random accesses across regions.
func (a Acct) RandTotal() int64 {
	var t int64
	for _, c := range a.Rand {
		t += c
	}
	return t
}

// DivTracker computes the divergence sums for a kernel that processes items
// in order with varying per-item work. Call Item for every item, then
// Flush, and add the sums into the Acct.
type DivTracker struct {
	wfSize int
	inWF   int
	maxWF  int32
	sumMax int64
	sumAll int64
}

// NewDivTracker returns a tracker for the given wavefront size.
// Size 1 (the CPU) never produces divergence.
func NewDivTracker(wfSize int) DivTracker {
	if wfSize < 1 {
		wfSize = 1
	}
	return DivTracker{wfSize: wfSize}
}

// Item records one item's workload (e.g. key-list length walked).
func (d *DivTracker) Item(work int32) {
	if work < 1 {
		work = 1
	}
	d.sumAll += int64(work)
	if work > d.maxWF {
		d.maxWF = work
	}
	d.inWF++
	if d.inWF == d.wfSize {
		d.sumMax += int64(d.maxWF) * int64(d.wfSize)
		d.inWF = 0
		d.maxWF = 0
	}
}

// Flush closes the trailing partial wavefront and writes the sums into a.
func (d *DivTracker) Flush(a *Acct) {
	if d.inWF > 0 {
		// A partial wavefront runs its live lanes to the longest item's
		// work: live lanes × max, not a full wavefront's width.
		d.sumMax += int64(d.maxWF) * int64(d.inWF)
		d.inWF = 0
		d.maxWF = 0
	}
	a.DivMaxWork += d.sumMax
	a.DivWork += d.sumAll
	d.sumMax = 0
	d.sumAll = 0
}
