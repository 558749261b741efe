package sched

import "apujoin/internal/alloc"

// GroupOrder implements the workload-divergence grouping optimization
// (paper Sec. 3.3): input items are grouped by their expected workload so
// that work items within the same wavefront perform similar amounts of
// work, reducing SIMD lockstep penalties.
//
// work[i] is the workload hint of item i (e.g. the bucket tuple count
// snapshotted by p2). numGroups is the tuning knob trading grouping
// overhead against divergence reduction. The returned slice is a
// permutation of the indices [lo,hi) ordered by workload group; passing it
// as the order argument of the b3/p3/p4 kernels executes them grouped. It
// is a recycler slab: the caller may alloc.PutWords it after the kernel.
func GroupOrder(work []int32, lo, hi, numGroups int) []int32 {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if numGroups < 1 {
		numGroups = 1
	}

	// Find the workload range.
	maxW := int32(0)
	for i := lo; i < hi; i++ {
		if work[i] > maxW {
			maxW = work[i]
		}
	}
	if maxW == 0 {
		maxW = 1
	}

	// Counting sort into numGroups workload levels. level = w*G/(max+1)
	// keeps levels balanced without a full sort, matching the cheap
	// grouping pass the optimization relies on.
	level := func(w int32) int {
		if w < 0 {
			w = 0
		}
		return int(int64(w) * int64(numGroups) / int64(maxW+1))
	}
	//apulint:ignore slabmake(one word per workload level, a handful)
	counts := make([]int32, numGroups+1)
	for i := lo; i < hi; i++ {
		counts[level(work[i])+1]++
	}
	for g := 1; g <= numGroups; g++ {
		counts[g] += counts[g-1]
	}
	order := alloc.GetWords(n) // a permutation: every entry is written below
	for i := lo; i < hi; i++ {
		g := level(work[i])
		order[counts[g]] = int32(i)
		counts[g]++
	}
	return order
}

// GroupCostAcct returns the accounting charge of performing the grouping
// pass itself over n items: a counting sort is two streaming passes plus a
// scatter whose group-bin pointers stay cached (the random component is a
// small fraction of the items).
func GroupCostAcct(n int) (instr int64, seqBytes int64, randAccesses int64) {
	return int64(n) * 6, int64(n) * 12, int64(n) / 16
}
