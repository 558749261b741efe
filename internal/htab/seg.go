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
// PHJ beat the coarse-grained PHJ-PL' in Table 3. A tuple's segment is its
// partition, the radix bits of its key's hash, so the segmented b1 and p1
// compute it and read no partition index; they charge the model's kernel,
// which reads one.

// InitSeg makes t, zero or released, a table whose bucket space is split
// into parts segments of bucketsPerPart buckets each, in place, as Init
// makes a flat one. bucketsPerPart is rounded up to a power of two.
// radixBits is the number of low hash bits the partitioning consumed: the
// within-segment slot uses the bits above them, otherwise only 1/parts of
// each segment's buckets would ever be populated (all keys of a partition
// share their low hash bits by construction). hashShift is the number of
// still-lower bits an outer (external) partitioning consumed before
// radixBits. n and arena are as for Init.
func (t *Table) InitSeg(parts, bucketsPerPart, n int, hashShift, radixBits uint, arena *alloc.Arena) {
	bpp := 1
	for bpp < bucketsPerPart {
		bpp *= 2
	}
	t.Init(parts*bpp, n, 0, arena)
	t.bucketsPerPart = bpp
	t.partShift = hashShift
	t.segShift = hashShift + radixBits
}

// B1Seg computes segmented bucket numbers for tuples [lo,hi) (B1 on a
// segmented table):
// bucket = partition*bucketsPerPart + slot, both from the key's hash — the
// partition is the radix bits the partitioning consumed, the slot the bits
// above them — as bucketOf computes it. The host reads no partition index,
// but the charge is the model's kernel's, which reads one beside the key
// and writes the bucket number.
func (t *Table) B1Seg(d *device.Device, keys, bucket []int32, lo, hi int) device.Acct {
	var a device.Acct
	bpp := uint32(t.bucketsPerPart)
	partShift, partMask := t.partShift, uint32(1)<<(t.segShift-t.partShift)-1
	segShift, segMask := t.segShift, bpp-1
	for i := lo; i < hi; i++ {
		h := hash.Murmur2(uint32(keys[i]), hash.Murmur2Seed)
		bucket[i] = int32((h>>partShift&partMask)*bpp + h>>segShift&segMask)
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * (hash.InstrPerHash + 3)
	a.SeqBytes = n * 12 // key, partition index, bucket number
	return a
}
