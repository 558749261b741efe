package htab

import (
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// Parallel-safe build kernels for the morsel-driven runtime.
//
// Two mechanisms keep concurrent builds both correct and deterministic:
//
//   - B2Atomic replaces the bucket-header count increment with a
//     sync/atomic add on the Count array, so range morsels of b2 can run
//     concurrently. Counter sums are order-independent, so the final table
//     state and the accounting are schedule-free.
//
//   - B3Shard / B4Shard split the insert steps by bucket OWNERSHIP instead
//     of by range: shard k processes exactly the tuples whose bucket lies
//     in its slice of the bucket space (for the segmented PHJ table the
//     high bucket bits are the partition index, so shards own disjoint
//     partition segments). A shard receives its tuples as an ascending
//     index list — its share of a sched.OwnerIndex built once per build
//     over the bucket numbers — so within a shard tuples are visited in
//     index order, the same relative order per bucket as a single-stream
//     execution, and key-list shapes, walk lengths and therefore simulated
//     times are identical no matter how many workers execute the shards.
//     Node allocation goes through a worker-private alloc.Local.
//
// The per-item accounting charges match the serial kernels; building the
// owner index is runtime scheduling work (two streamed passes over the
// bucket numbers) and is not modeled, like the morsel dispatch itself.

// shardShift returns the right-shift that maps a bucket number to its
// ownership shard for the given shard count (a power of two).
func (t *Table) shardShift(shards int) uint {
	var shift uint
	for 1<<shift < t.nBuckets {
		shift++
	}
	var sbits uint
	for 1<<sbits < shards {
		sbits++
	}
	if sbits > shift {
		return 0
	}
	return shift - sbits
}

// shards clamps the requested ownership shard count to the bucket count,
// keeping it a power of two.
func (t *Table) shards(want int) int {
	s := 1
	for s*2 <= want && s*2 <= t.nBuckets {
		s *= 2
	}
	return s
}

// Owners builds the ownership decomposition of b3 and b4 into x:
// sched.DefaultShards shards (fewer on a tiny table) over bucket, b1's
// output. Call it between b1 and b3; one index serves both insert steps,
// every device's share of them, and any table of the same geometry.
func (t *Table) Owners(pool *sched.Pool, bucket []int32, x *sched.OwnerIndex) {
	shards := t.shards(sched.DefaultShards)
	x.Build(pool, bucket, t.shardShift(shards), shards)
}

// B2Atomic is B2 with a sync/atomic increment of the bucket count, safe for
// concurrent range morsels. The head snapshot is a plain read: b3 is the
// step that links new key nodes, so Head is constant throughout b2. The
// work hint records the post-increment count; under concurrency its exact
// value is schedule-dependent, so grouped execution (the only consumer)
// stays on the serial path.
func (t *Table) B2Atomic(d *device.Device, bucket []int32, head, work []int32, lo, hi int) device.Acct {
	var a device.Acct
	for i := lo; i < hi; i++ {
		b := bucket[i]
		c := atomic.AddInt32(&t.Count[b], 1)
		head[i] = t.Head[b]
		if work != nil {
			work[i] = c
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8
	a.Rand[device.RegionHashTable] = n
	a.AtomicOps = n
	a.AtomicTargets = int64(t.nBuckets)
	return a
}

// B3Shard performs b3 for the tuples idx — one shard's share of the owner
// index over bucket, ascending: the key lists visited (and the key nodes
// created, through the worker-private allocator) all live in the shard's
// bucket range, so concurrent shards never touch the same list. The created
// key nodes are counted privately and published with one add: the only
// readers (B4Shard's AtomicTargets, NumKeys) run after the b3 barrier.
func (t *Table) B3Shard(d *device.Device, keys, bucket, node []int32, idx []int32, la *alloc.Local) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()

	var created int64
	for _, i := range idx {
		b := bucket[i]
		key := keys[i]
		var visited int32 = 1
		kn := t.Head[b]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
			visited++
		}
		if kn == nilRef {
			kn = la.Alloc(keyNodeWords)
			words[kn+keyOffKey] = key
			words[kn+keyOffRIDHead] = nilRef
			words[kn+keyOffNext] = t.Head[b]
			t.Head[b] = kn
			created++
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
	}
	t.numKeys.Add(created)

	processed := int64(len(idx))
	a.Items = processed
	a.Instr += created * instrCreateNode
	a.AtomicOps = created       // latched head swap on the bucket
	a.SeqBytes = processed * 12 // key, bucket number, node ref
	a.AtomicTargets = int64(t.nBuckets)
	st := la.Stats()
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	div.Flush(&a)
	return a
}

// B4Shard performs b4 for the tuples idx, the same shard share B3Shard
// received. The key node a tuple appends to belongs to the tuple's bucket,
// so ownership carries over from b3 and the rid-list pushes need no
// synchronization.
func (t *Table) B4Shard(d *device.Device, rids, node []int32, idx []int32, la *alloc.Local) device.Acct {
	var a device.Acct
	words := t.arena.Words()
	before := la.Stats()

	for _, i := range idx {
		kn := node[i]
		rn := la.Alloc(ridNodeWords)
		words[rn+ridOffRID] = rids[i]
		words[rn+ridOffNext] = words[kn+keyOffRIDHead]
		words[kn+keyOffRIDHead] = rn
	}

	processed := int64(len(idx))
	a.Items = processed
	a.Instr = processed * instrInsertRID
	a.SeqBytes = processed * 8
	a.Rand[device.RegionHashTable] = processed * 2
	a.AtomicOps = processed
	if nk := t.numKeys.Load(); nk > 0 {
		a.AtomicTargets = nk
	} else {
		a.AtomicTargets = 1
	}
	st := la.Stats().Sub(before)
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	return a
}
