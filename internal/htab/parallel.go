package htab

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// Parallel-safe build kernels for the morsel-driven runtime.
//
// B3Shard / B4Shard split the insert steps by bucket OWNERSHIP instead of
// by range: shard k processes exactly the tuples whose bucket lies in its
// slice of the bucket space, so concurrent shards never touch the same key
// list or bucket header. Owners lays the build out so that a shard's tuples
// are one contiguous range, in index order — the same relative order per
// bucket as a single-stream execution — so key-list shapes, walk lengths
// and therefore simulated times are identical no matter how many workers
// execute the shards. For the segmented PHJ table the high bucket bits are
// the partition index and the partitioned build side is already in that
// order; any other build is stable-scattered by owner with sched.Scatter.
// Node allocation goes through a worker-private alloc.Local.
//
// b2 moves nothing on a pool: its parallel kernel is its charge alone
// (Table.B2Charge), and B4Shard counts each tuple into its bucket header as
// it links the tuple's rid — a plain increment, since the shard owns the
// bucket. The model still charges b2's latched atomic per tuple; the host
// issues none. Nothing reads the counts between b2 and b4 on a pool (their
// one reader, the grouping hints, keeps the build single-stream), and the
// counts follow the rids, so they hold on each of separate tables whatever
// b2's and b4's PL ratios are.
//
// The per-item accounting charges match the serial kernels; laying out the
// ownership is runtime scheduling work (for SHJ two streamed passes over
// the build's columns) and is not modeled, like the morsel dispatch itself.

// Owners is the ownership decomposition of a build's insert steps, b3 and
// b4: sched.DefaultShards shards (fewer on a tiny table), shard k owning the
// k-th slice of the bucket space. Every shard's tuples are one contiguous
// range of the owner-ordered columns Keys, Bucket and RIDs, in index order.
// One layout serves both insert steps, every device's share of them and
// both tables of a SeparateTables build (they share one geometry). The
// zero value is ready to use; Release hands back what Build took.
type Owners struct {
	Keys, Bucket, RIDs []int32

	shards int
	// offsets, on a partition-sorted build side, are its partition
	// boundaries: shard k owns the per partitions from k*per on, whose
	// tuples are contiguous already and used in place. Otherwise scat laid
	// the columns out in slab.
	offsets []int32
	per     int
	scat    sched.Scatter
	slab    []int32
}

// Build lays out the ownership of the build side (keys, rids), whose b1
// bucket numbers on t are bucket. offsets, when non-nil, are the partition
// boundaries of a build side sorted by partition for the segmented table t
// (PHJ): with at least one partition per shard, a shard owns whole
// partitions and nothing is built. Otherwise the three columns are
// stable-scattered by owner into a recycler slab on the pool.
func (o *Owners) Build(p *sched.Pool, t *Table, keys, bucket, rids, offsets []int32) {
	shards, shift := sched.OwnerShards(t.nBuckets)
	o.shards, o.offsets = shards, nil
	if parts := len(offsets) - 1; parts >= shards {
		o.Keys, o.Bucket, o.RIDs = keys, bucket, rids
		o.offsets, o.per = offsets, parts/shards
		return
	}
	n := len(keys)
	alloc.PutWords(o.slab)
	o.slab = alloc.GetWords(3 * n)
	o.Keys, o.Bucket, o.RIDs = o.slab[:n:n], o.slab[n:2*n:2*n], o.slab[2*n:3*n]
	o.scat.Setup(p, bucket, shift, shards)
	o.scat.Move(p, 0, n, sched.Cols{o.Keys, o.Bucket, o.RIDs}, sched.Cols{keys, bucket, rids})
}

// Shards returns the shard count of the last Build.
func (o *Owners) Shards() int { return o.shards }

// Cut returns, for every shard k, the position in the owner-ordered
// columns of shard k's first tuple at index i or later, so shard k's share
// of the tuples [lo,hi) is [Cut(lo)[k], Cut(hi)[k]).
func (o *Owners) Cut(i int) (at [sched.DefaultShards]int32) {
	if o.offsets == nil {
		o.scat.Cut(i, at[:o.shards])
		return at
	}
	for k := range o.shards {
		at[k] = min(max(int32(i), o.offsets[k*o.per]), o.offsets[(k+1)*o.per])
	}
	return at
}

// Release hands the slab and the scatter's grid to the recycler, leaving the
// zero value.
func (o *Owners) Release() {
	alloc.PutWords(o.slab)
	o.scat.Release()
	*o = Owners{}
}

// B3Shard performs b3 for the tuples [lo,hi) of the owner-ordered columns —
// one shard's share (Owners.Cut): the key lists visited (and the key nodes
// created, through the worker-private allocator) all live in the shard's
// bucket range, so concurrent shards never touch the same list. The created
// key nodes are counted privately and published with one add: the only
// readers (B4Shard's AtomicTargets, NumKeys) run after the b3 barrier.
func (t *Table) B3Shard(d *device.Device, keys, bucket, node []int32, lo, hi int, la *alloc.Local) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()

	var created int64
	for i := lo; i < hi; i++ {
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

	processed := int64(hi - lo)
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

// B4Shard performs b4 for the tuples [lo,hi) of the owner-ordered columns,
// a shard share as B3Shard takes it, and counts each tuple into its bucket
// header — the count the pooled b2 only charges. The key node a tuple
// appends to and the header it counts in belong to the tuple's bucket, so
// ownership carries over from b3 and neither needs synchronization.
func (t *Table) B4Shard(d *device.Device, bucket, rids, node []int32, lo, hi int, la *alloc.Local) device.Acct {
	var a device.Acct
	words := t.arena.Words()
	before := la.Stats()

	for i := lo; i < hi; i++ {
		t.Count[bucket[i]]++
		kn := node[i]
		rn := la.Alloc(ridNodeWords)
		words[rn+ridOffRID] = rids[i]
		words[rn+ridOffNext] = words[kn+keyOffRIDHead]
		words[kn+keyOffRIDHead] = rn
	}

	processed := int64(hi - lo)
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
