package rel

import (
	"slices"

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
