package radix

import (
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// Parallel-safe partition kernels. n1 is a pure map over range morsels and
// n2 counts per morsel, publishing with atomic adds. n3 scatters: the
// executor starts it only after n2 has counted the whole relation, so the
// slot Gather would copy tuple i to — its partition's offset plus its rank
// among that partition's tuples in index order — is known before anything
// moves. N3Setup lays those slots out as one cursor per (morsel, partition)
// on the fixed morsel grid over [0,n); N3Scatter lets each morsel stream its
// three input columns once and write every tuple to its final place in the
// output relation. Concurrent morsels write disjoint slots, and the output is
// a pure function of the data: it equals the single-stream N1..N3 + Gather
// tuple for tuple, whatever the split, the pool size or the schedule.
//
// What the model charges is unchanged: the paper's chunk chains, appended
// through the software allocator by sched.DefaultShards ownership shards
// (shard k owns the partitions [k<<shift, (k+1)<<shift)), each through a
// worker-private alloc.Local per device share. The scatter builds no chain;
// chargeShare replays each shard's chunk requests through a real Local, so
// the allocator's own code produces every counter.

// shardShift returns the right-shift mapping a partition number to its
// ownership shard for the given shard count (a power of two ≤ Partitions).
func (p *Pass) shardShift(shards int) uint {
	var sbits uint
	for 1<<sbits < shards {
		sbits++
	}
	if sbits > p.Bits {
		return 0
	}
	return p.Bits - sbits
}

// shards clamps the requested shard count to the pass fan-out, keeping it a
// power of two.
func (p *Pass) shards(want int) int {
	s := 1
	for s*2 <= want && s*2 <= len(p.counts) {
		s *= 2
	}
	return s
}

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

// N3Setup prepares the pooled n3 to partition straight into out: it counts
// n1's partition numbers per morsel × partition on the pool and turns the
// counts into output cursors with an exclusive prefix sum in (partition,
// morsel) order, so a partition's slots are its morsels' runs in grid order.
// Call it once, after n1 and n2 have covered [0,n); every n3 share of the
// pass then goes through N3Scatter, and Gather copies nothing. The grid is
// over the whole relation, independent of how the shares split it and of
// the pool. Its slab goes back with Release.
func (p *Pass) N3Setup(pool *sched.Pool, out rel.Relation) {
	n, parts := len(p.part), len(p.counts)
	m := (n + sched.MorselItems - 1) / sched.MorselItems
	p.out = out
	p.grid = alloc.GetWords((m + 2) * parts)
	cur := p.grid[:m*parts]
	p.moved = p.grid[m*parts : (m+1)*parts]
	p.done = p.grid[(m+1)*parts:]
	clear(p.grid[m*parts:])

	pool.ForEach(m, func(mi int) {
		var h [1 << MaxBitsPerPass]int32
		for _, pt := range p.part[mi*sched.MorselItems : min(n, (mi+1)*sched.MorselItems)] {
			h[uint8(pt)]++
		}
		copy(cur[mi*parts:(mi+1)*parts], h[:])
	})
	var pos int32
	for pt := 0; pt < parts; pt++ {
		for at := pt; at < len(cur); at += parts {
			c := cur[at]
			cur[at] = pos
			pos += c
		}
	}
}

// N3Scatter is n3 over the share [lo,hi) on the pool. Every morsel of the
// grid that overlaps the share copies its tuples to their cursors and
// leaves the cursors advanced, so a morsel the split cuts resumes in the
// next share where this one stopped. The share is then charged as the
// ownership shards' chunk appends: accts, which must hold
// sched.DefaultShards records, comes back cut to one record per shard, for
// the caller to merge in shard order.
func (p *Pass) N3Scatter(lo, hi int, pool *sched.Pool, accts []device.Acct) []device.Acct {
	if lo < hi {
		first, last := lo/sched.MorselItems, (hi-1)/sched.MorselItems
		pool.ForEach(last-first+1, func(k int) {
			mi := first + k
			p.scatterMorsel(mi, max(lo, mi*sched.MorselItems), min(hi, (mi+1)*sched.MorselItems))
		})
	}
	return p.chargeShare(accts)
}

// scatterMorsel moves the tuples [lo,hi) of grid morsel mi and publishes
// how many went to each partition.
func (p *Pass) scatterMorsel(mi, lo, hi int) {
	parts := len(p.counts)
	row := p.grid[mi*parts : (mi+1)*parts]
	var at [1 << MaxBitsPerPass]int32
	copy(at[:], row)

	part := p.part[lo:hi]
	inK, inR := p.in.Keys[lo:hi], p.in.RIDs[lo:hi]
	inK, inR = inK[:len(part)], inR[:len(part)]
	outK, outR := p.out.Keys, p.out.RIDs
	for i, pt := range part {
		slot := at[uint8(pt)]
		outK[slot] = inK[i]
		outR[slot] = inR[i]
		at[uint8(pt)] = slot + 1
	}

	for pt, was := range row {
		if c := at[pt] - was; c != 0 {
			atomic.AddInt32(&p.moved[pt], c)
			row[pt] = at[pt]
		}
	}
}

// chargeShare prices what the running share scattered and folds it into
// done. Shard by shard it opens a worker-private allocator on the pass's
// arena, requests the chunks the shard's partitions would have grown by —
// a partition holding `before` tuples that receives c more allocates
// ⌈(before+c)/64⌉ − ⌈before/64⌉ of them — and fills accts[shard] from the
// tuple count and the allocator's own counters. Every request has one size,
// so a Local's counters depend only on how many a shard makes, not on the
// order partitions make them in. Closing the Local folds them into the
// arena's totals, as a chain-building shard's would.
func (p *Pass) chargeShare(accts []device.Acct) []device.Acct {
	shards := p.shards(sched.DefaultShards)
	shift := p.shardShift(shards)
	for s := 0; s < shards; s++ {
		la := p.arena.NewLocal()
		var n int64
		for pt := s << shift; pt < (s+1)<<shift; pt++ {
			before, c := p.done[pt], p.moved[pt]
			for k := chunksOf(before+c) - chunksOf(before); k > 0; k-- {
				la.Alloc(chunkWords)
			}
			p.done[pt], p.moved[pt] = before+c, 0
			n += int64(c)
		}
		accts[s] = p.n3Acct(n, la.Stats())
		la.Close()
	}
	return accts[:shards]
}
