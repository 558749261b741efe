package shard

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// splitAtRef is SplitAt as it was before the scatter: a counting pass, then
// an append of every tuple into fresh per-partition columns, hashing every
// key twice on one goroutine. It stays as the reference.
func splitAtRef(r rel.Relation, level int) [Partitions]rel.Relation {
	var counts [Partitions]int
	for _, k := range r.Keys {
		counts[PartitionAt(k, level)]++
	}
	var out [Partitions]rel.Relation
	for p, n := range counts {
		if n == 0 {
			continue
		}
		out[p] = rel.Relation{Keys: make([]int32, 0, n)}
	}
	for _, k := range r.Keys {
		p := PartitionAt(k, level)
		out[p].Keys = append(out[p].Keys, k)
	}
	return out
}

// splitAt is SplitAt of one relation on no pool, its slabs left to the
// collector.
func splitAt(r rel.Relation, level int) [Partitions]rel.Relation {
	split, _ := SplitAt(nil, level, r)
	return split[0]
}

// requireSplitsEqual compares two splits tuple for tuple, an empty
// partition equal to an absent one.
func requireSplitsEqual(t testing.TB, name string, got, want [Partitions]rel.Relation) {
	t.Helper()
	for p := range got {
		if got[p].Len() != want[p].Len() {
			t.Fatalf("%s: partition %d holds %d tuples, the reference %d", name, p, got[p].Len(), want[p].Len())
		}
		for i := range got[p].Keys {
			if got[p].Keys[i] != want[p].Keys[i] {
				t.Fatalf("%s: partition %d slot %d holds key %d, the reference key %d",
					name, p, i, got[p].Keys[i], want[p].Keys[i])
			}
		}
	}
}

// dirtyRecycler poisons the slabs a split can draw, so that plain builds run
// the next split on dirty memory too; race builds poison on every PutWords
// already.
func dirtyRecycler(maxWords int) {
	if alloc.PoisonOnPut {
		return
	}
	var held [][]int32
	for n := 1024; n <= maxWords; {
		w := alloc.GetWords(n)
		w = w[:cap(w)]
		for i := range w {
			w[i] = alloc.PoisonWord
		}
		held = append(held, w)
		n = cap(w) + 1 // the next class up
	}
	for _, w := range held {
		alloc.PutWords(w)
	}
}

// TestSplitAtMatchesReference: the pooled split into recycled slabs equals
// the append loop it replaced tuple for tuple, on pools of 1, 2 and 4, at
// levels 0–3, for an empty input, a one-tuple input, an input whose every
// key lands in one partition and a multi-morsel input — each alone and all
// in one call, sharing one slab — every time on a freshly dirtied
// recycler; Split's fresh columns equal it too, and alias neither the input
// nor each other.
func TestSplitAtMatchesReference(t *testing.T) {
	n := 2*sched.MorselItems + 777
	big := rel.Gen{N: n, Dist: rel.HighSkew, Seed: 31}.Probe(rel.Gen{N: n, Seed: 30}.Build(), 0.8)
	for _, workers := range []int{1, 2, 4} {
		pool := sched.NewPool(workers)
		for level := 0; level <= 3; level++ {
			var one rel.Relation // every key in partition 0 at this level
			for _, k := range big.Keys {
				if PartitionAt(k, level) == 0 {
					one.Keys = append(one.Keys, k)
				}
			}
			names := []string{"empty", "one tuple", "one partition", "multi-morsel"}
			inputs := []rel.Relation{{}, big.Slice(5, 6), one, big}
			for j, r := range inputs {
				dirtyRecycler(4 * n)
				split, slab := SplitAt(pool, level, r)
				requireSplitsEqual(t, fmt.Sprintf("pool=%d level=%d %s", workers, level, names[j]), split[0], splitAtRef(r, level))
				slab.Release()
			}
			dirtyRecycler(8 * n)
			split, slab := SplitAt(pool, level, inputs...)
			for j, r := range inputs {
				requireSplitsEqual(t, fmt.Sprintf("pool=%d level=%d %s in one call", workers, level, names[j]), split[j], splitAtRef(r, level))
			}
			slab.Release()
		}
		pool.Close()
	}
	want, orig := splitAtRef(big, 0), rel.Relation{Keys: slices.Clone(big.Keys)}
	fresh := Split(big)
	requireSplitsEqual(t, "Split", fresh, want)
	for p := range fresh {
		clear(fresh[p].Keys)
		want[p] = fresh[p]
		requireSplitsEqual(t, fmt.Sprintf("Split after clearing partition %d", p), fresh, want)
	}
	if !reflect.DeepEqual(big, orig) {
		t.Fatal("Split's partitions alias its input")
	}
}

// Split must place every tuple exactly once, in its key's fixed partition,
// preserving relative order.
func TestSplitPartitionsEveryTupleOnce(t *testing.T) {
	g := rel.Gen{N: 1 << 12, Seed: 3}
	r := g.Build()
	parts := Split(r)

	total := 0
	for p, pr := range parts {
		total += pr.Len()
		for i, k := range pr.Keys {
			if PartitionOf(k) != p {
				t.Fatalf("partition %d holds key %d owned by partition %d", p, k, PartitionOf(k))
			}
			_ = i
		}
	}
	if total != r.Len() {
		t.Fatalf("split scattered %d of %d tuples", total, r.Len())
	}

	// Reassembling by walking r and popping from each partition in order
	// must reproduce the original keys: order within a partition is r's.
	var next [Partitions]int
	for i, k := range r.Keys {
		p := PartitionOf(k)
		j := next[p]
		if parts[p].Keys[j] != k {
			t.Fatalf("tuple %d (key %d) not preserved in partition %d slot %d", i, k, p, j)
		}
		next[p]++
	}
}

// The split is a pure function of the relation: the shard count never
// appears, so two splits of the same data are deeply equal.
func TestSplitDeterministic(t *testing.T) {
	g := rel.Gen{N: 4096, Dist: rel.HighSkew, Seed: 11}
	r := g.Probe(rel.Gen{N: 4096, Seed: 10}.Build(), 0.5)
	a, b := Split(r), Split(r)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Split is not deterministic")
	}
}

func TestOwnerContiguousAndComplete(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 5, 8} {
		prev := 0
		seen := make(map[int]bool)
		for p := 0; p < Partitions; p++ {
			o := Owner(p, shards)
			if o < 0 || o >= shards {
				t.Fatalf("Owner(%d, %d) = %d out of range", p, shards, o)
			}
			if o < prev {
				t.Fatalf("Owner(%d, %d) = %d is not monotone (prev %d)", p, shards, o, prev)
			}
			prev = o
			seen[o] = true
		}
		if len(seen) != shards {
			t.Fatalf("shards=%d: only %d shards own a partition", shards, len(seen))
		}
	}
}

// MergeResults sums in slice order: merging [a, b] must equal merging
// [a, b] again bit for bit, and the totals must be the ordered sums.
func TestMergeResultsOrderedSums(t *testing.T) {
	a := &core.Result{Matches: 3, TotalNS: 1.25, EstimatedNS: 1}
	a.BuildNS, a.ProbeNS = 0.5, 0.75
	a.Cache.Accesses, a.Cache.Misses = 10, 2
	a.ZeroCopyBytes = 64
	b := &core.Result{Matches: 4, TotalNS: 2.5, EstimatedNS: 2}
	b.BuildNS, b.ProbeNS = 1.5, 1.0
	b.Cache.Accesses, b.Cache.Misses = 20, 5
	b.ZeroCopyBytes = 128

	m := MergeResults([]*core.Result{a, b, nil})
	if m.Matches != 7 || m.TotalNS != 3.75 || m.BuildNS != 2.0 || m.ProbeNS != 1.75 {
		t.Fatalf("bad merge: %+v", m)
	}
	if m.Cache.Accesses != 30 || m.Cache.Misses != 7 || m.ZeroCopyBytes != 192 {
		t.Fatalf("bad counter merge: %+v", m)
	}
	again := MergeResults([]*core.Result{a, b, nil})
	if !reflect.DeepEqual(m, again) {
		t.Fatal("MergeResults is not deterministic")
	}
	if empty := MergeResults(nil); empty.Matches != 0 {
		t.Fatalf("empty merge: %+v", empty)
	}
}

// Per-partition counts over a split must reproduce the whole join's count:
// equi-join matches never cross partitions.
func TestSplitPreservesJoinCount(t *testing.T) {
	bg := rel.Gen{N: 1 << 12, Seed: 21}
	r := bg.Build()
	s := rel.Gen{N: 1 << 13, Dist: rel.LowSkew, Seed: 22}.Probe(r, 0.75)
	want := rel.NaiveJoinCount(r, s)

	rp, sp := Split(r), Split(s)
	var got int64
	for p := 0; p < Partitions; p++ {
		got += rel.NaiveJoinCount(rp[p], sp[p])
	}
	if got != want {
		t.Fatalf("per-partition join count %d != whole-relation count %d", got, want)
	}
}

// SplitAt at every repartitioning level the spill path can reach must
// place every tuple exactly once in its key's level partition, be a pure
// function of the relation, and agree with Split at level 0.
func TestSplitAtLevelsPartitionEveryTupleOnce(t *testing.T) {
	g := rel.Gen{N: 1 << 12, Dist: rel.LowSkew, Seed: 21}
	r := g.Build()
	requireSplitsEqual(t, "Split vs SplitAt at level 0", Split(r), splitAt(r, 0))
	for level := 0; level <= 3; level++ {
		parts := splitAt(r, level)
		total := 0
		for p, pr := range parts {
			total += pr.Len()
			for _, k := range pr.Keys {
				if PartitionAt(k, level) != p {
					t.Fatalf("level %d partition %d holds key %d owned by %d",
						level, p, k, PartitionAt(k, level))
				}
			}
		}
		if total != r.Len() {
			t.Fatalf("level %d split scattered %d of %d tuples", level, total, r.Len())
		}
		if again := splitAt(r, level); !reflect.DeepEqual(parts, again) {
			t.Fatalf("SplitAt at level %d is not deterministic", level)
		}
	}
}

// TestSplitAtDecorrelatedSeeds is the property the spill path's recursion
// rests on: every key of a level-0 partition shares that level's hash
// slot, so re-splitting it at level 0 lands everything back in one
// sub-partition — while level 1, hashing with a decorrelated seed,
// actually subdivides it.
func TestSplitAtDecorrelatedSeeds(t *testing.T) {
	r := rel.Gen{N: 1 << 13, Seed: 22}.Build()
	for p, part := range Split(r) {
		if part.Len() < Partitions {
			continue
		}
		nonEmpty := func(parts [Partitions]rel.Relation) int {
			n := 0
			for _, pr := range parts {
				if pr.Len() > 0 {
					n++
				}
			}
			return n
		}
		if got := nonEmpty(splitAt(part, 0)); got != 1 {
			t.Errorf("partition %d re-split at level 0 spans %d partitions, want the degenerate 1", p, got)
		}
		if got := nonEmpty(splitAt(part, 1)); got < 2 {
			t.Errorf("partition %d split at level 1 spans %d partitions, want a real subdivision", p, got)
		}
	}
}

// TestSplitAtPreservesJoinCount: a join decomposed over any repartitioning
// level sums to the undecomposed count — the equi-join distributes over
// key-disjoint partitions at every level, which is what lets an oversized
// partition recurse without changing a single match.
func TestSplitAtPreservesJoinCount(t *testing.T) {
	build := rel.Gen{N: 3000, Dist: rel.HighSkew, Seed: 23}.Build()
	probe := rel.Gen{N: 4000, Dist: rel.LowSkew, Seed: 24}.Probe(build, 0.7)
	want := rel.NaiveJoinCount(build, probe)
	for level := 0; level <= 3; level++ {
		bp, pp := splitAt(build, level), splitAt(probe, level)
		var got int64
		for p := 0; p < Partitions; p++ {
			got += rel.NaiveJoinCount(bp[p], pp[p])
		}
		if got != want {
			t.Errorf("level %d decomposed join counts %d, undecomposed %d", level, got, want)
		}
	}
}

// TestGridOfOneIsTheRelation: the identities of the unsharded engine's grid
// — Split hands back the input's own columns, every key lives in partition
// 0, merging one result returns that result, no repartitioning level is
// consumed — against the grid of Partitions, which is Split, PartitionOf and
// MergeResults one level down.
func TestGridOfOneIsTheRelation(t *testing.T) {
	if GridFor(0) != One || GridFor(-3) != One || GridFor(1) != Partitions || GridFor(64) != Partitions {
		t.Fatalf("GridFor: 0→%d, 1→%d, 64→%d; want 1, %d, %d", GridFor(0), GridFor(1), GridFor(64), Partitions, Partitions)
	}
	r := rel.Gen{N: 1 << 10, Seed: 3}.Build()
	one := One.Split(r)
	if len(one) != 1 || &one[0].Keys[0] != &r.Keys[0] {
		t.Error("One.Split copied the relation or returned more than one slice")
	}
	for _, k := range r.Keys {
		if One.PartitionOf(k) != 0 {
			t.Fatalf("One.PartitionOf(%d) = %d", k, One.PartitionOf(k))
		}
		if Grid(Partitions).PartitionOf(k) != PartitionOf(k) {
			t.Fatalf("the fixed grid places key %d differently from PartitionOf", k)
		}
	}
	res := &core.Result{Matches: 7, TotalNS: 1.5}
	res.Ratios.Build = []float64{0.25}
	if One.Merge([]*core.Result{res}) != res {
		t.Error("One.Merge did not return the partition's own result")
	}
	if !One.Whole() || One.Levels() != 0 || Grid(Partitions).Whole() || Grid(Partitions).Levels() != 1 {
		t.Errorf("Whole/Levels: one %v/%d, fixed %v/%d; want true/0, false/1",
			One.Whole(), One.Levels(), Grid(Partitions).Whole(), Grid(Partitions).Levels())
	}

	eight, want := Grid(Partitions).Split(r), Split(r)
	if len(eight) != Partitions || !reflect.DeepEqual(eight, want[:]) {
		t.Error("the fixed grid's Split differs from Split")
	}
	parts := []*core.Result{res, {Matches: 2, TotalNS: 0.5}, nil, nil, nil, nil, nil, nil}
	if got := Grid(Partitions).Merge(parts); !reflect.DeepEqual(got, MergeResults(parts)) || got == res {
		t.Error("the fixed grid's Merge differs from MergeResults")
	}
	// MergeResults never short-cuts: one chunk merges to a fresh Result.
	if got := MergeResults(parts[:1]); got == res || got.Ratios.Build != nil {
		t.Error("MergeResults over one result returned it as is")
	}
}

// BenchmarkSplitAt measures the spill path's partitioner: every input of a
// spilled chain goes through it once per repartitioning level. The ref row
// is the append loop it replaced; the pooled rows split into recycled slabs
// on pools of 1 and 2, report their speed-up over the ref row beside them
// as x-ref, and fail if their partitions differ from its.
func BenchmarkSplitAt(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		build := rel.Gen{N: n, Seed: 1}.Build()
		for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
			in := build
			if dist != rel.Uniform {
				in = rel.Gen{N: n, Dist: dist, Seed: 2}.Probe(build, 1.0)
			}
			want := splitAtRef(in, 0)
			var refNS float64
			run := func(name string, split func() ([][Partitions]rel.Relation, rel.Relation)) {
				b.Run(fmt.Sprintf("%v/n=%d/%s", dist, n, name), func(b *testing.B) {
					var got [][Partitions]rel.Relation
					var slab rel.Relation
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						slab.Release()
						got, slab = split()
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/float64(n), "ns/tuple")
					requireSplitsEqual(b, name, got[0], want)
					slab.Release()
					if name == "ref" {
						refNS = ns
					} else if refNS > 0 {
						b.ReportMetric(refNS/ns, "x-ref")
					}
				})
			}
			run("ref", func() ([][Partitions]rel.Relation, rel.Relation) {
				return [][Partitions]rel.Relation{splitAtRef(in, 0)}, rel.Relation{}
			})
			for _, workers := range []int{1, 2} {
				pool := sched.NewPool(workers)
				run(fmt.Sprintf("pool=%d", workers), func() ([][Partitions]rel.Relation, rel.Relation) { return SplitAt(pool, 0, in) })
				pool.Close()
			}
		}
	}
}
