package htab

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
)

// Segmented tables support the partitioned hash join: after radix
// partitioning, the bucket space of one Table is divided into one segment
// per partition, so the per-partition simple hash joins of PHJ run as
// ordinary step series over the concatenation of all partitions while
// random accesses stay within the (cache-resident) segment of the tuple's
// partition. This is the cache-reuse benefit that makes the fine-grained
// PHJ beat the coarse-grained PHJ-PL' in Table 3.

// NewSeg returns a table whose bucket space is split into parts segments of
// bucketsPerPart buckets each. bucketsPerPart is rounded up to a power of
// two. radixBits is the number of low hash bits the partitioning consumed:
// the within-segment slot uses the bits above them, otherwise only
// 1/parts of each segment's buckets would ever be populated (all keys of a
// partition share their low hash bits by construction).
// hashShift is the number of still-lower bits an outer (external)
// partitioning consumed before radixBits.
func NewSeg(parts, bucketsPerPart int, hashShift, radixBits uint, arena *alloc.Arena) *Table {
	bpp := 1
	for bpp < bucketsPerPart {
		bpp *= 2
	}
	t := New(parts*bpp, arena)
	t.bucketsPerPart = bpp
	t.partShift = hashShift
	t.segShift = hashShift + radixBits
	return t
}

// B1Seg computes segmented bucket numbers for build tuples [lo,hi):
// bucket = partIdx[i]*bucketsPerPart + murmur(key) mod bucketsPerPart.
func (t *Table) B1Seg(d *device.Device, keys, partIdx []int32, bucket []int32, lo, hi int) device.Acct {
	var a device.Acct
	segMask := uint32(t.bucketsPerPart - 1)
	bpp := int32(t.bucketsPerPart)
	shift := t.segShift
	for i := lo; i < hi; i++ {
		h := (hash.Murmur2(uint32(keys[i]), hash.Murmur2Seed) >> shift) & segMask
		bucket[i] = partIdx[i]*bpp + int32(h)
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * (hash.InstrPerHash + 3)
	a.SeqBytes = n * 12 // key, partition index, bucket number
	return a
}

// P1Seg is B1Seg for probe tuples.
func (t *Table) P1Seg(d *device.Device, keys, partIdx []int32, bucket []int32, lo, hi int) device.Acct {
	return t.B1Seg(d, keys, partIdx, bucket, lo, hi)
}
