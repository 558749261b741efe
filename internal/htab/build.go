package htab

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
)

// bucketOf computes the bucket of a key for both flat and segmented
// layouts; the fused single-tuple operations and Merge go through it.
func (t *Table) bucketOf(key int32) uint32 {
	h := hash.Murmur2(uint32(key), hash.Murmur2Seed)
	if t.bucketsPerPart > 0 {
		part := (h >> t.partShift) & ((1 << (t.segShift - t.partShift)) - 1)
		slot := (h >> t.segShift) & uint32(t.bucketsPerPart-1)
		return part*uint32(t.bucketsPerPart) + slot
	}
	return (h >> t.segShift) & t.mask
}

// allocDelta converts allocator activity between two snapshots into
// accounting charges: global-pointer atomics and local-memory ops.
func allocDelta(a *device.Acct, before, after alloc.Stats) {
	d := after.Sub(before)
	a.AllocAtomics += d.GlobalAtomics
	a.LocalOps += d.LocalOps
}

// B1 computes the hash bucket number for build tuples [lo,hi) and stores it
// in bucket[i]. Pure streaming computation: this is the step the GPU
// accelerates by >15x in the paper's Fig. 4.
func (t *Table) B1(d *device.Device, keys []int32, bucket []int32, lo, hi int) device.Acct {
	var a device.Acct
	shift := t.segShift
	for i := lo; i < hi; i++ {
		bucket[i] = int32((hash.Murmur2(uint32(keys[i]), hash.Murmur2Seed) >> shift) & t.mask)
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * hash.InstrPerHash
	a.SeqBytes = n * 8 // read key, write bucket number
	return a
}

// B2 visits the hash bucket header for tuples [lo,hi): it increments the
// bucket's tuple count and, when work is non-nil, records the count as the
// workload hint the grouping optimization sorts by. The single stream is
// the only writer, so the increment is plain; B2Charge prices the paper's
// latched atomic.
func (t *Table) B2(d *device.Device, bucket, work []int32, lo, hi int) device.Acct {
	for i := lo; i < hi; i++ {
		b := bucket[i]
		t.Count[b]++
		if work != nil {
			work[i] = t.Count[b]
		}
	}
	return t.B2Charge(lo, hi)
}

// B2Charge is the accounting record of b2 over tuples [lo,hi): one latched
// atomic count increment per tuple, spread over nBuckets targets, and the
// key-list head snapshot the paper's kernel writes. On a pool it is the
// whole of b2 — nothing moves; B4Shard counts each tuple into its bucket as
// it links the tuple's rid, under ownership.
func (t *Table) B2Charge(lo, hi int) device.Acct {
	var a device.Acct
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8 // read bucket number, write head snapshot
	a.Rand[device.RegionHashTable] = n
	a.AtomicOps = n
	a.AtomicTargets = int64(t.nBuckets)
	return a
}

// B3 visits the key list of each tuple's bucket, creating a key node when
// the key is not present, and stores the node reference in node[i].
// If order is non-nil, items are processed in that order (the
// workload-divergence grouping optimization); the result is identical but
// wavefronts become more homogeneous. Key-list walks are the random,
// branch-divergent accesses that erase the GPU's advantage in Fig. 4.
func (t *Table) B3(d *device.Device, keys, bucket []int32, node []int32, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	before := t.arena.Stats()
	words := t.arena.Words()

	var created int64
	run := func(i int) {
		key := keys[i]
		b := bucket[i]
		var visited int32 = 1
		kn := t.Head[b]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
			visited++
		}
		if kn == nilRef {
			kn = t.newKeyNode(key, int(b))
			words = t.arena.Words()
			a.Instr += instrCreateNode
			a.AtomicOps++ // latched head swap on the bucket
			created++
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
	}

	if order != nil {
		// order is the grouped permutation of exactly [lo,hi).
		for _, i := range order {
			run(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}
	t.numKeys.Add(created)

	n := int64(hi - lo)
	a.Items = n
	a.SeqBytes = n * 12 // key, bucket number, node ref
	a.AtomicTargets = int64(t.nBuckets)
	allocDelta(&a, before, t.arena.Stats())
	div.Flush(&a)
	return a
}

// B4 inserts the record id into the rid list of node[i] for tuples [lo,hi):
// one rid-node allocation plus a latched head swap on the key node.
func (t *Table) B4(d *device.Device, rids, node []int32, lo, hi int) device.Acct {
	var a device.Acct
	before := t.arena.Stats()
	for i := lo; i < hi; i++ {
		kn := node[i]
		rn := t.arena.Alloc(ridNodeWords)
		words := t.arena.Words()
		words[rn+ridOffRID] = rids[i]
		words[rn+ridOffNext] = words[kn+keyOffRIDHead]
		words[kn+keyOffRIDHead] = rn
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrInsertRID
	a.SeqBytes = n * 8 // rid, node ref
	a.Rand[device.RegionHashTable] = n * 2
	a.AtomicOps = n
	if nk := t.numKeys.Load(); nk > 0 {
		a.AtomicTargets = nk
	} else {
		a.AtomicTargets = 1
	}
	allocDelta(&a, before, t.arena.Stats())
	return a
}
