package rel

import (
	"slices"
	"sort"

	"apujoin/internal/alloc"
)

// KeySample returns a strided sample of the relation's keys: every
// (Len/target)-th key, or every key when the relation has at most target
// tuples. The stride arithmetic is shared with the planner's workload
// fingerprint (internal/plan) — a catalog that samples at ingest and a
// planner that samples per query must walk the identical positions, or the
// measured skew/selectivity buckets (and with them the fingerprints) would
// diverge between the two paths. The sample is the caller's to keep.
func (r Relation) KeySample(target int) []int32 {
	sample := r.KeySampleSlab(target)
	defer alloc.PutWords(sample)
	return slices.Clone(sample)
}

// KeySampleSlab is KeySample into a recycler slab, for a sample that is
// read and dropped: hand it back with alloc.PutWords.
func (r Relation) KeySampleSlab(target int) []int32 {
	n := r.Len()
	if n == 0 || target <= 0 {
		return nil
	}
	stride := max(n/target, 1)
	sample := alloc.GetWords((n + stride - 1) / stride)
	for j := range sample {
		sample[j] = r.Keys[j*stride]
	}
	return sample
}

// KeyIndex is a sorted copy of a relation's key column, supporting
// O(log n) membership tests. The relation catalog builds one per
// registered relation at ingest so per-query selectivity measurement
// becomes a handful of binary searches over a stored probe sample instead
// of a full scan of the build relation.
type KeyIndex []int32

// Index returns the sorted key index of the relation.
func (r Relation) Index() KeyIndex {
	ix := make(KeyIndex, len(r.Keys))
	copy(ix, r.Keys)
	sort.Slice(ix, func(i, j int) bool { return ix[i] < ix[j] })
	return ix
}

// Contains reports whether key k occurs in the indexed relation.
func (ix KeyIndex) Contains(k int32) bool {
	i := sort.Search(len(ix), func(i int) bool { return ix[i] >= k })
	return i < len(ix) && ix[i] == k
}
