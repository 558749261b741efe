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

// B1 computes the hash bucket number for tuples [lo,hi) and stores it in
// bucket[i]; on a segmented table it is B1Seg. Build (b1) and probe (p1)
// run the same kernel at the same charge. Pure streaming computation: this
// is the step the GPU accelerates by >15x in the paper's Fig. 4.
func (t *Table) B1(d *device.Device, keys []int32, bucket []int32, lo, hi int) device.Acct {
	if t.bucketsPerPart > 0 {
		return t.B1Seg(d, keys, bucket, lo, hi)
	}
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
// whole of b2 — nothing moves; B3Shard counts each tuple into its bucket as
// it bumps the tuple's key, under ownership.
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

// B3 does the host work of b3 and b4 for tuples [lo,hi) and returns b3's
// record: it visits the key list of each tuple's bucket, creates a key node
// (from position lo of the node array on) when the key is not present and
// bumps the key's rid count, recording the key-list nodes visited into
// vis[i] (the key's position, or the list length plus one when it was
// created) and into fresh[i] whether the tuple created its key. If order is
// non-nil, items are processed in that order (the workload-divergence
// grouping optimization); the table is identical but wavefronts become more
// homogeneous. Key-list walks are the random, branch-divergent accesses that
// erase the GPU's advantage in Fig. 4. The record is B3Charge's, the key
// nodes' requests the next ones of the table's arena.
func (t *Table) B3(d *device.Device, keys, bucket, vis, fresh []int32, lo, hi int, order []int32) device.Acct {
	t.insert(keys, bucket, vis, fresh, lo, hi, order, false)
	return t.B3Charge(d, vis, fresh, lo, hi, order, false)
}

// insert is b3's host work over tuples [lo,hi), in order when non-nil (the
// grouped permutation of exactly [lo,hi)): B3's, and B3Shard's, which also
// counts each tuple into its bucket header (count).
func (t *Table) insert(keys, bucket, vis, fresh []int32, lo, hi int, order []int32, count bool) {
	nodes, head := t.nodes, t.Head
	next := int32(nodeWords * lo)
	for j := range hi - lo {
		i := lo + j
		if order != nil {
			i = int(order[j])
		}
		key, b := keys[i], bucket[i]
		if count {
			t.Count[b]++
		}
		var visited int32 = 1
		kn := head[b]
		for kn != nilRef && nodes[kn+nodeKey] != key {
			kn = nodes[kn+nodeNext]
			visited++
		}
		var created int32
		if kn == nilRef {
			nodes[next+nodeKey], nodes[next+nodeNext], nodes[next+nodeCount] = key, head[b], 1
			head[b], next, created = next, next+nodeWords, 1
		} else {
			nodes[kn+nodeCount]++
		}
		vis[i], fresh[i] = visited, created
	}
	// The created key nodes are counted privately and published with one
	// add: the only readers (b4's AtomicTargets, NumKeys) run after the b3
	// barrier.
	t.numKeys.Add(int64(next)/nodeWords - int64(lo))
}

// B3Charge is the accounting record of b3 over tuples [lo,hi) from b3's
// vis and fresh columns: the key-list walk, divergent like p3's, and a
// latched head swap and a key node per created key. order is as for B3; it
// decides which items share a wavefront. The key nodes' requests are
// charged on the table's arena: in shard, as a fresh alloc.Local serves
// them (one ownership shard's share on a pool), else as the arena's next
// requests, in call order.
func (t *Table) B3Charge(d *device.Device, vis, fresh []int32, lo, hi int, order []int32, shard bool) device.Acct {
	var a device.Acct
	visited := divCharge(&a, d.WavefrontSize, vis, 0, lo, hi, order)
	var created int64
	for _, f := range fresh[lo:hi] {
		created += int64(f)
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = visited*instrListNode + created*instrCreateNode
	a.Rand[device.RegionHashTable] = visited
	a.AtomicOps = created // latched head swap on the bucket
	a.SeqBytes = n * 12   // key, bucket number, node ref
	a.AtomicTargets = int64(t.nBuckets)
	t.chargeNodes(&a, created, keyNodeWords, shard)
	return a
}

// B4Charge is the accounting record of b4 over tuples [lo,hi), whose host
// work B3 did, and b4's whole kernel: per tuple one rid node and a latched
// head swap on its key node, spread over the distinct keys. The rid nodes'
// requests are charged as B3Charge charges the key nodes'.
func (t *Table) B4Charge(lo, hi int, shard bool) device.Acct {
	var a device.Acct
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrInsertRID
	a.SeqBytes = n * 8 // rid, node ref
	a.Rand[device.RegionHashTable] = n * 2
	a.AtomicOps = n
	a.AtomicTargets = max(t.numKeys.Load(), 1)
	t.chargeNodes(&a, n, ridNodeWords, shard)
	return a
}

// chargeNodes charges m requests of words each on the table's arena and
// their allocator activity into a: in shard, as a fresh alloc.Local that
// then closes would serve them, else as the arena's next requests.
func (t *Table) chargeNodes(a *device.Acct, m int64, words int, shard bool) {
	if shard {
		st := alloc.LocalStats(t.arena.Config(), m, words)
		t.arena.Fold(st)
		allocDelta(a, alloc.Stats{}, st)
		return
	}
	before := t.arena.Stats()
	t.arena.Count(m, words)
	allocDelta(a, before, t.arena.Stats())
}
