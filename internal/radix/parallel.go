package radix

import (
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// Parallel-safe partition kernels, following the same two mechanisms as
// package htab: atomic counter updates for the header-visit step and
// partition ownership for the append step. Shard k owns the partitions
// [k<<shift, (k+1)<<shift), so concurrent shards append through disjoint
// partition headers and chunk chains. A shard receives its tuples as an
// ascending index list (its share of the Owners index), so within a
// partition tuples append in index order — the same order as a
// single-stream pass, keeping the gathered relation (and everything
// downstream of it) schedule-free.

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

// Owners builds n3's ownership decomposition into x: sched.DefaultShards
// shards (fewer on a narrow pass) over n1's output, the partition number of
// every tuple. Call it between n1 and n3; N3Shard takes x.Shard's lists.
func (p *Pass) Owners(pool *sched.Pool, x *sched.OwnerIndex) {
	shards := p.shards(sched.DefaultShards)
	x.Build(pool, p.part, p.shardShift(shards), shards)
}

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

// N3Shard performs n3 for the tuples idx — one shard's share of the owner
// Owners index, ascending — appending through the worker-private
// allocator.
func (p *Pass) N3Shard(d *device.Device, idx []int32, la *alloc.Local) device.Acct {
	var a device.Acct
	inK, inR := p.in.Keys, p.in.RIDs
	words := p.arena.Words()

	for _, i := range idx {
		pt := p.part[i]
		f := p.fill[pt]
		if p.tail[pt] == nilRef || f == ChunkTuples {
			c := la.Alloc(chunkWords)
			words[c+chunkOffNxt] = nilRef
			if p.tail[pt] == nilRef {
				p.head[pt] = c
			} else {
				words[p.tail[pt]+chunkOffNxt] = c
			}
			p.tail[pt] = c
			p.fill[pt] = 0
			f = 0
		}
		off := p.tail[pt] + 1 + 2*f
		words[off] = inK[i]
		words[off+1] = inR[i]
		p.fill[pt] = f + 1
	}

	processed := int64(len(idx))
	a.Items = processed
	a.Instr = processed * instrAppendRow
	a.SeqBytes = processed * 8
	a.Rand[device.RegionPartition] = processed * 2
	a.AtomicOps = processed
	a.AtomicTargets = int64(len(p.counts))
	st := la.Stats()
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	return a
}
