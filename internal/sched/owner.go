package sched

import (
	"slices"

	"apujoin/internal/alloc"
)

// OwnerIndex is the ownership decomposition of an insert step: for a key
// array (a build's bucket numbers) whose
// high bits name the owning shard, it lists every shard's tuple indices in
// ascending order, so a shard kernel visits exactly its own tuples — in the
// same relative order as a single-stream pass — instead of scanning the
// whole range and skipping what it does not own.
//
// The index is built with the ordered-reduction construction of the
// streamed pipeline producer: per-morsel × per-shard counts on the pool, an
// exclusive prefix sum in (shard, morsel) order, and a parallel fill into
// disjoint slices. Like every decomposition in this package it is a pure
// function of the data: the pool only decides which goroutine counts or
// fills which morsel.
//
// One value serves a whole run. Build reuses the slab whenever it is large
// enough; the slab comes from the recycler (Build writes every cursor and
// every index before reading it) and goes back with Release. The zero
// value is ready to use.
type OwnerIndex struct {
	shards int
	// off[s] is the position in idx of shard s's first index.
	off [DefaultShards + 1]int32
	// slab holds the per-morsel × per-shard cursors, then the indices.
	slab []int32
	idx  []int32
}

// Build indexes key by owner: tuple i belongs to shard key[i]>>shift, which
// must lie in [0,shards) with shards ≤ DefaultShards. It replaces whatever
// the index held before.
func (x *OwnerIndex) Build(p *Pool, key []int32, shift uint, shards int) {
	n := len(key)
	m := (n + MorselItems - 1) / MorselItems
	x.shards = shards
	if need := m*shards + n; cap(x.slab) < need {
		alloc.PutWords(x.slab)
		x.slab = alloc.GetWords(need)
	}
	cur := x.slab[:m*shards]
	idx := x.slab[m*shards : m*shards+n]
	x.idx = idx

	p.ForEach(m, func(mi int) {
		var h [DefaultShards]int32
		for _, k := range key[mi*MorselItems : min(n, (mi+1)*MorselItems)] {
			h[k>>shift]++
		}
		copy(cur[mi*shards:(mi+1)*shards], h[:])
	})

	// Shard-major, morsel-minor: a shard's slice of idx is the
	// concatenation of its morsels' slices in grid order, hence ascending.
	var pos int32
	for s := 0; s < shards; s++ {
		x.off[s] = pos
		for mi := 0; mi < m; mi++ {
			c := cur[mi*shards+s]
			cur[mi*shards+s] = pos
			pos += c
		}
	}
	x.off[shards] = pos

	p.ForEach(m, func(mi int) {
		var at [DefaultShards]int32
		copy(at[:], cur[mi*shards:(mi+1)*shards])
		for i := mi * MorselItems; i < min(n, (mi+1)*MorselItems); i++ {
			s := key[i] >> shift
			idx[at[s]] = int32(i)
			at[s]++
		}
	})
}

// Release hands the slab to the recycler, leaving the zero value.
func (x *OwnerIndex) Release() {
	alloc.PutWords(x.slab)
	*x = OwnerIndex{}
}

// Shards returns the shard count of the last Build.
func (x *OwnerIndex) Shards() int { return x.shards }

// Shard returns the indices in [lo,hi) that shard owns, ascending. One
// Build serves every device's share of every step over the same keys: a
// share is cut out of the shard's list by two binary searches. The result
// aliases the index and is valid until the next Build.
func (x *OwnerIndex) Shard(shard, lo, hi int) []int32 {
	own := x.idx[x.off[shard]:x.off[shard+1]]
	a, _ := slices.BinarySearch(own, int32(lo))
	b, _ := slices.BinarySearch(own, int32(hi))
	return own[a:b]
}
