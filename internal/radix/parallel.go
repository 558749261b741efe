package radix

import (
	"sync/atomic"

	"apujoin/internal/device"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// Parallel-safe partition kernels. n1 is a pure map over range morsels and
// n2 counts per morsel, publishing with atomic adds. n3 scatters: the
// executor starts it only after n2 has counted the whole relation, so the
// slot Gather would copy tuple i to — its partition's offset plus its rank
// among that partition's tuples in index order — is known before anything
// moves. N3Setup lays those slots out with the tree's one counting scatter
// (sched.Scatter) over n1's partition numbers; N3Scatter lets each morsel
// stream its three input columns once and write every tuple to its final
// place in the output relation. Concurrent morsels write disjoint slots, and
// the output is a pure function of the data: it equals the single-stream
// N1..N3 + Gather tuple for tuple, whatever the split, the pool size or the
// schedule.
//
// What the model charges is unchanged: the paper's chunk chains, appended
// through the software allocator by sched.DefaultShards ownership shards
// (shard k owns the partitions [k<<shift, (k+1)<<shift)), each through a
// worker-private alloc.Local per device share. The scatter builds no chain;
// chargeShare replays each shard's chunk requests through a real Local, so
// the allocator's own code produces every counter.

// chunksOf returns the number of chunks holding c tuples of one partition.
func chunksOf(c int32) int32 { return (c + ChunkTuples - 1) / ChunkTuples }

// N2Atomic is N2 for concurrent range morsels: the morsel counts into a
// private stack-resident histogram (a pass fans out to at most
// 1<<MaxBitsPerPass partitions) and publishes each non-zero entry with one
// sync/atomic add, so concurrent morsels meet on the shared headers once per
// partition instead of once per tuple. Integer sums commute, so the final
// counts are schedule-free; the accounting is a function of hi-lo only.
func (p *Pass) N2Atomic(d *device.Device, lo, hi int) device.Acct {
	var a device.Acct
	var h [1 << MaxBitsPerPass]int32
	for _, pt := range p.part[lo:hi] {
		h[pt]++
	}
	for pt, c := range h[:len(p.counts)] {
		if c != 0 {
			atomic.AddInt32(&p.counts[pt], c)
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHdr
	a.SeqBytes = n * 4
	a.Rand[device.RegionPartition] = n
	a.AtomicOps = n
	a.AtomicTargets = int64(len(p.counts))
	return a
}

// N3Setup prepares the pooled n3 to partition straight into out: a
// sched.Scatter of n1's partition numbers, whose grid is over the whole
// relation, independent of how the shares split it and of the pool. Call it
// once, after n1 and n2 have covered [0,n); every n3 share of the pass then
// goes through N3Scatter, and Gather copies nothing. The grid goes back
// with Release.
func (p *Pass) N3Setup(pool *sched.Pool, out rel.Relation) {
	p.out = out
	p.scat.Setup(pool, p.part, 0, len(p.counts))
}

// N3Scatter is n3 over the share [lo,hi) on the pool: every tuple of the
// share moves to its final slot of out, a morsel the split cuts finishing in
// the next share. The share is then charged as the ownership shards' chunk
// appends: accts, which must hold sched.DefaultShards records, comes back
// cut to one record per shard, for the caller to merge in shard order.
func (p *Pass) N3Scatter(lo, hi int, pool *sched.Pool, accts []device.Acct) []device.Acct {
	p.scat.Move(pool, lo, hi, sched.Cols{p.out.Keys, p.out.RIDs}, sched.Cols{p.in.Keys, p.in.RIDs})
	return p.chargeShare(lo, hi, accts)
}

// chargeShare prices the share [lo,hi). Shard by shard it opens a
// worker-private allocator on the pass's arena, requests the chunks the
// shard's partitions would have grown by — a partition holding `before`
// tuples of [0,lo) that receives c more allocates ⌈(before+c)/64⌉ −
// ⌈before/64⌉ of them, both counts read off the scatter's cuts — and fills
// accts[shard] from the tuple count and the allocator's own counters. Every
// request has one size, so a Local's counters depend only on how many a
// shard makes, not on the order partitions make them in. Closing the Local
// folds them into the arena's totals, as a chain-building shard's would.
func (p *Pass) chargeShare(lo, hi int, accts []device.Acct) []device.Acct {
	var start, from, to [1 << MaxBitsPerPass]int32
	p.scat.Cut(0, start[:])
	p.scat.Cut(lo, from[:])
	p.scat.Cut(hi, to[:])
	shards, shift := sched.OwnerShards(len(p.counts))
	for s := 0; s < shards; s++ {
		la := p.arena.NewLocal()
		var n int64
		for pt := s << shift; pt < (s+1)<<shift; pt++ {
			before, after := from[pt]-start[pt], to[pt]-start[pt]
			for k := chunksOf(after) - chunksOf(before); k > 0; k-- {
				la.Alloc(chunkWords)
			}
			n += int64(after - before)
		}
		accts[s] = p.n3Acct(n, la.Stats())
		la.Close()
	}
	return accts[:shards]
}
