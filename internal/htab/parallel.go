package htab

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// Parallel-safe build kernels for the morsel-driven runtime.
//
// B3Shard splits the insert steps by bucket OWNERSHIP instead of by range:
// shard k processes exactly the tuples whose bucket lies in its slice of the
// bucket space, so concurrent shards never touch the same key list or bucket
// header. Owners lays the build out so that a shard's tuples are one
// contiguous range, in index order — the same relative order per bucket as a
// single-stream execution — so key-list shapes, walk lengths and therefore
// simulated times are identical no matter how many workers execute the
// shards. For the segmented PHJ table the high bucket bits are the partition
// index and the partitioned build side is already in that order; any other
// build is stable-scattered by owner with sched.Scatter. A shard's key nodes
// live from its range's first position on, so no node is shared either.
//
// b2 and b4 move nothing on a pool: their parallel kernels are their
// charges alone (Table.B2Charge, and B4Charge per shard), and B3Shard counts
// each tuple into its bucket header as it bumps the tuple's key — a plain
// increment, since the shard owns the bucket. The model still charges b2's
// latched atomic per tuple; the host issues none. Nothing reads the counts
// between b2 and b3 on a pool (their one reader, the grouping hints, keeps
// the build single-stream), and the counts follow the keys, so they hold on
// each of separate tables whatever b2's PL ratio is. The paper's allocator
// serves each (step, device share, shard) through a worker-private
// alloc.Local; its activity is charged as such a Local's would be
// (alloc.LocalStats), a pure function of the shard's request count.
//
// The per-item accounting charges match the serial kernels; laying out the
// ownership is runtime scheduling work (for SHJ two streamed passes over
// the build's columns) and is not modeled, like the morsel dispatch itself.

// Owners is the ownership decomposition of a build's insert steps, b3 and
// b4: sched.DefaultShards shards (fewer on a tiny table), shard k owning the
// k-th slice of the bucket space. Every shard's tuples are one contiguous
// range of the owner-ordered columns Keys and Bucket, in index order. One
// layout serves both insert steps, every device's share of them and both
// tables of a SeparateTables build (they share one geometry). The zero
// value is ready to use; Release hands back what Build took.
type Owners struct {
	Keys, Bucket []int32

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

// Build lays out the ownership of the build side's keys, whose b1 bucket
// numbers on t are bucket. offsets, when non-nil, are the partition
// boundaries of a build side sorted by partition for the segmented table t
// (PHJ): with at least one partition per shard, a shard owns whole
// partitions and nothing is built. Otherwise the two columns are
// stable-scattered by owner into a recycler slab on the pool.
func (o *Owners) Build(p *sched.Pool, t *Table, keys, bucket, offsets []int32) {
	shards, shift := sched.OwnerShards(t.nBuckets)
	o.shards, o.offsets = shards, nil
	if parts := len(offsets) - 1; parts >= shards {
		o.Keys, o.Bucket = keys, bucket
		o.offsets, o.per = offsets, parts/shards
		return
	}
	n := len(keys)
	alloc.PutWords(o.slab)
	o.slab = alloc.GetWords(2 * n)
	o.Keys, o.Bucket = o.slab[:n:n], o.slab[n:2*n]
	o.scat.Setup(p, bucket, shift, shards)
	o.scat.Move(p, 0, n, sched.Cols{o.Keys, o.Bucket}, sched.Cols{keys, bucket})
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

// Release hands the slab and the scatter's grid to the recycler, leaving an
// empty layout whose scatter serves the next Build.
func (o *Owners) Release() {
	alloc.PutWords(o.slab)
	o.scat.Release()
	*o = Owners{scat: o.scat}
}

// B3Shard is B3 for the tuples [lo,hi) of the owner-ordered columns — one
// shard's share (Owners.Cut) — in index order, writing vis and fresh at
// those positions, and it also counts each tuple into its bucket header:
// the key lists visited, the key nodes created and the headers counted all
// belong to the shard, so concurrent shards need no synchronization. The
// record is B3Charge's for a shard.
func (t *Table) B3Shard(d *device.Device, keys, bucket, vis, fresh []int32, lo, hi int) device.Acct {
	t.insert(keys, bucket, vis, fresh, lo, hi, nil, true)
	return t.B3Charge(d, vis, fresh, lo, hi, nil, true)
}
