// Package shard owns the hash partitioner and the deterministic merge
// behind every engine: relations are split once over the engine's Grid —
// one partition (the unsharded engine: the relation itself) or a fixed grid
// of Partitions key-hash partitions — partitions are assigned to the N
// shard servers of a cluster by a contiguous ownership map, and
// per-partition join results are reduced in partition order.
//
// The server-count-invariance contract rests on the grid being fixed: the
// partition a tuple lands in depends only on its key, never on how many
// servers hold the partitions, so an equi-join (or a whole left-deep
// pipeline over the shared key) decomposes into Partitions independent
// sub-joins whose inputs — and therefore whose match counts and simulated
// times — are identical for any server count. Changing the server count
// moves partitions between processes; it never changes a single computed
// number. This is the same trick the worker-count contract uses (fixed
// morsel grids, ordered reduction in sched.Pool), lifted one level up.
package shard

import (
	"apujoin/internal/alloc"
	"apujoin/internal/core"
	"apujoin/internal/hash"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// Partitions is the fixed number of hash partitions every relation is
// split into, and the most shard servers a cluster can have: a server can
// own several partitions, but a partition never spans servers. Eight keeps
// per-partition relations large enough to join efficiently while dividing
// evenly among 1, 2 or 4 servers.
const Partitions = 8

// partitionSeed seeds the partitioner's Murmur2, deliberately distinct
// from hash.Murmur2Seed: the join kernels bucket and radix-partition with
// the default seed, and reusing it here would send every tuple of a
// partition into a correlated subset of hash buckets.
const partitionSeed uint32 = 0x85ebca6b

// PartitionOf returns the fixed grid partition owning key, in
// [0, Partitions).
func PartitionOf(key int32) int {
	return int(hash.Murmur2(uint32(key), partitionSeed) & (Partitions - 1))
}

// levelSeed derives the partitioner seed of one repartitioning level.
// Level 0 is the fixed grid itself. Deeper levels — the spill path's
// recursive repartitioning of an oversized partition — must hash with a
// DIFFERENT seed per level: every key of a level-d partition shares that
// level's hash slot by construction, so rehashing with the same seed would
// send the whole partition back into one sub-partition. Mixing in the
// golden-ratio constant per level decorrelates the levels while keeping
// each a fixed pure function, so spilled executions stay deterministic.
func levelSeed(level int) uint32 {
	return partitionSeed + 0x9e3779b9*uint32(level)
}

// PartitionAt returns key's partition at a repartitioning level: level 0
// is PartitionOf (the fixed grid); level d > 0 is the d-th recursive
// sub-partitioner of the spill path.
func PartitionAt(key int32, level int) int {
	return int(hash.Murmur2(uint32(key), levelSeed(level)) & (Partitions - 1))
}

// Grid is the number of key-hash partitions one engine splits every relation
// into: One — the unsharded engine, whose single partition is the relation
// itself — or Partitions. Everything below the router is written against a
// grid; the identities of a grid of one (no copy, no hash, no merge) live
// here and nowhere else.
type Grid int

// One is the grid of an unsharded engine.
const One Grid = 1

// GridFor derives an engine's grid from its configured shard count: no
// shards is one partition, any shard count is the fixed Partitions grid —
// the count selects nothing else.
func GridFor(shards int) Grid {
	if shards <= 0 {
		return One
	}
	return Partitions
}

// Whole reports whether each partition slice of the grid is the whole
// relation, in its original tuple order.
func (g Grid) Whole() bool { return g == One }

// Levels is how many Partitions-way repartitioning levels the grid itself
// consumed — the level a spill of one of its partitions starts at, so that
// no level's hash is ever applied twice to the same keys.
func (g Grid) Levels() int {
	n := 0
	for size := One; size < g; size *= Partitions {
		n++
	}
	return n
}

// PartitionOf returns the grid partition owning key.
func (g Grid) PartitionOf(key int32) int {
	if g == One {
		return 0
	}
	return PartitionOf(key)
}

// Split partitions r over the grid for a relation that outlives the query
// (ingest). Over One it returns r's own columns, not a copy; over
// Partitions it is Split.
func (g Grid) Split(r rel.Relation) []rel.Relation {
	if g == One {
		return []rel.Relation{r}
	}
	parts := Split(r)
	return parts[:]
}

// SplitScratch partitions one query's inline relation over the grid. Over
// One it returns r's own columns and no scratch; over Partitions the
// partitions are sub-slices of scratch, a pair of recycler slabs the caller
// hands back (Release) once no reader is left.
func (g Grid) SplitScratch(p *sched.Pool, r rel.Relation) (parts []rel.Relation, scratch rel.Relation) {
	if g == One {
		return []rel.Relation{r}, rel.Relation{}
	}
	split, scratch := SplitAt(p, 0, r)
	return split[0][:], scratch
}

// Merge reduces the grid's per-partition results of one join. The single
// result of One is the join's result and is returned as it is, ratio
// vectors, step timings and pilot profiles included; Partitions results
// reduce with MergeResults. (MergeResults itself never short-cuts a vector
// of one: the spiller's streaming fallback merges however many chunks the
// data made, and a chunk count of one must not change what a step reports.)
func (g Grid) Merge(parts []*core.Result) *core.Result {
	if g == One {
		return parts[0]
	}
	return MergeResults(parts)
}

// Owner maps a partition to the shard owning it among 1..Partitions
// shards: partitions are assigned contiguously (shard k owns partitions
// [k*Partitions/shards, (k+1)*Partitions/shards)), so growing the shard
// count splits ownership ranges without interleaving them.
func Owner(part, shards int) int {
	return part * shards / Partitions
}

// OwnedBy returns the partitions shard server k owns among shards servers,
// in ascending partition order. It is the inverse view of Owner: the
// cluster tier concatenates each server's owned partitions into one
// upload.
func OwnedBy(k, shards int) []int {
	var out []int
	for p := 0; p < Partitions; p++ {
		if Owner(p, shards) == k {
			out = append(out, p)
		}
	}
	return out
}

// Split partitions a relation over the fixed grid: tuple i of r lands in
// partition PartitionOf(r.Keys[i]), and tuples within a partition preserve
// their relative order in r. The output is a pure function of r — where
// partitions are held plays no part — and every returned partition has a
// freshly allocated key column of its own (it aliases neither r nor another
// partition): catalog entries outlive any query and drop one partition at a
// time.
func Split(r rel.Relation) [Partitions]rel.Relation {
	split, slab := SplitAt(nil, 0, r)
	defer slab.Release()
	parts := split[0]
	for p, part := range parts {
		parts[p] = rel.Relation{Keys: append([]int32(nil), part.Keys...)}
	}
	return parts
}

// SplitAt partitions each of rs at a repartitioning level on the pool (nil
// runs it inline): tuple i of a relation lands in partition
// PartitionAt(Keys[i], level), in its relative order. Each key is hashed
// once, and the keys move through sched.Scatter into one recycler slab,
// each relation's partitions consecutive sub-slices of it in partition
// order. SplitAt returns every relation's partitions and the slab, which
// the caller hands back (Release) once no reader is left. Level 0 is the
// fixed grid; deeper levels are the spill path's recursive sub-splits of
// one oversized partition, each a pure function of the data exactly as
// Split is.
func SplitAt(p *sched.Pool, level int, rs ...rel.Relation) ([][Partitions]rel.Relation, rel.Relation) {
	n := 0
	for _, r := range rs {
		n += r.Len()
	}
	slab, part := rel.Recycled(n), alloc.GetWords(n)
	defer alloc.PutWords(part)
	var x sched.Scatter
	defer x.Release()
	split := make([][Partitions]rel.Relation, len(rs))
	at := 0
	for j, r := range rs {
		hashed, out := part[at:at+r.Len()], slab.Slice(at, at+r.Len())
		at += r.Len()
		p.ForEach((r.Len()+sched.MorselItems-1)/sched.MorselItems, func(mi int) {
			lo := mi * sched.MorselItems
			for i, k := range r.Keys[lo:min(r.Len(), lo+sched.MorselItems)] {
				hashed[lo+i] = int32(PartitionAt(k, level))
			}
		})
		x.Setup(p, hashed, 0, Partitions)
		x.Move(p, 0, r.Len(), sched.Cols{out.Keys}, sched.Cols{r.Keys})
		var from, to [Partitions]int32
		x.Cut(0, from[:])
		x.Cut(r.Len(), to[:])
		for q, lo := range from {
			hi := to[q]
			split[j][q] = rel.Relation{Keys: out.Keys[lo:hi:hi]}
		}
	}
	return split, slab
}

// MergeResults reduces per-partition join results in partition order into
// one Result: match counts, every simulated phase and total time, the cost
// model's estimates, cache and allocator activity and the zero-copy
// footprint all sum — the partitions form independent sub-joins, so their
// simulated times add exactly like a pipeline's serial steps do. Summation
// runs strictly in slice (partition) order, so the floating-point totals
// are bit-identical for any server count and any execution interleaving.
//
// Per-partition artifacts that do not aggregate — the ratio vectors,
// per-step timings, pilot profiles and BasicUnit shares — are left zero in
// the merged result; they remain meaningful only per partition.
func MergeResults(parts []*core.Result) *core.Result {
	if len(parts) == 0 {
		return &core.Result{}
	}
	out := &core.Result{
		Algo:   parts[0].Algo,
		Scheme: parts[0].Scheme,
		Arch:   parts[0].Arch,
	}
	for _, r := range parts {
		if r == nil {
			continue
		}
		out.Matches += r.Matches
		out.PartitionNS += r.PartitionNS
		out.BuildNS += r.BuildNS
		out.ProbeNS += r.ProbeNS
		out.MergeNS += r.MergeNS
		out.TransferNS += r.TransferNS
		out.TotalNS += r.TotalNS
		out.EstimatedNS += r.EstimatedNS
		out.LockOverheadNS += r.LockOverheadNS
		out.EstPartitionNS += r.EstPartitionNS
		out.EstBuildNS += r.EstBuildNS
		out.EstProbeNS += r.EstProbeNS
		out.Cache.Accesses += r.Cache.Accesses
		out.Cache.Misses += r.Cache.Misses
		out.ZeroCopyBytes += r.ZeroCopyBytes
		out.SpilledPartitions += r.SpilledPartitions
		out.SpillBytes += r.SpillBytes
		out.SpillNS += r.SpillNS
		out.AllocStats.Allocs += r.AllocStats.Allocs
		out.AllocStats.Words += r.AllocStats.Words
		out.AllocStats.GlobalAtomics += r.AllocStats.GlobalAtomics
		out.AllocStats.LocalOps += r.AllocStats.LocalOps
		out.AllocStats.WastedWords += r.AllocStats.WastedWords
	}
	return out
}
