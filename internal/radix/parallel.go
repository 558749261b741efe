package radix

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// The pooled n3. On a pool n3 starts only after n2 has counted the whole
// relation and Layout has laid out every partition's final slots, so the
// chunk requests each share makes are known from the scatter's cuts. They
// are charged as the paper's chunk chains appended through the software
// allocator by sched.DefaultShards ownership shards (shard k owns the
// partitions [k<<shift, (k+1)<<shift)), each through a worker-private
// alloc.Local per device share.

// N3Shards is n3 over the share [lo,hi) on a pool, once Layout has run: it
// charges the share as the ownership shards' chunk appends. accts, which
// must hold sched.DefaultShards records, comes back cut to one record per
// shard, for the caller to merge in shard order.
//
// Shard by shard it counts the chunks the shard's partitions would have
// grown by — a partition holding `before` tuples of [0,lo) that receives c
// more takes ⌈(before+c)/64⌉ − ⌈before/64⌉ of them, both counts read off
// the scatter's cuts — and fills accts[shard] from the tuple count and the
// Stats a fresh worker-private allocator closes with after that many
// requests (alloc.LocalStats), which it folds into the pass's arena. Every
// request has one size, so those Stats depend only on how many a shard
// makes, not on the order partitions make them in.
func (p *Pass) N3Shards(lo, hi int, accts []device.Acct) []device.Acct {
	var start, from, to [1 << MaxBitsPerPass]int32
	p.scat.Cut(0, start[:])
	p.scat.Cut(lo, from[:])
	p.scat.Cut(hi, to[:])
	cfg := p.arena.Config()
	shards, shift := sched.OwnerShards(len(p.counts))
	for s := 0; s < shards; s++ {
		var n, m int64
		for pt := s << shift; pt < (s+1)<<shift; pt++ {
			before, after := from[pt]-start[pt], to[pt]-start[pt]
			m += int64(chunksOf(after) - chunksOf(before))
			n += int64(after - before)
		}
		st := alloc.LocalStats(cfg, m, chunkWords)
		accts[s] = p.n3Acct(n, st)
		p.arena.Fold(st)
	}
	return accts[:shards]
}
