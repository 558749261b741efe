package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"apujoin/internal/hash"
	"apujoin/internal/rel"
)

// ownerKeys returns n owner keys in [0, shards<<shift) drawn from a
// relation of the given distribution, the way a radix pass derives
// partition numbers from key hashes.
func ownerKeys(n int, dist rel.Distribution, seed int64, shift uint, shards int) []int32 {
	r := rel.Gen{N: n, Dist: dist, Seed: seed}.Build()
	key := make([]int32, n)
	span := uint32(shards) << shift
	for i, k := range r.Keys {
		key[i] = int32(hash.Murmur2(uint32(k), hash.Murmur2Seed) % span)
	}
	return key
}

// filterScan is the decomposition the index replaces: the tuples of [lo,hi)
// owned by shard, in index order.
func filterScan(key []int32, shift uint, shard, lo, hi int) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		if int(key[i]>>shift) == shard {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestOwnerIndexMatchesFilterScan: for every input shape, pool size, shard
// and random [lo,hi), a shard's share of the index is exactly the filter
// scan's, in order. One OwnerIndex value is rebuilt across all cases of a
// pool size, so slab reuse (larger → smaller → larger inputs) is covered
// too.
func TestOwnerIndexMatchesFilterScan(t *testing.T) {
	type input struct {
		name   string
		key    []int32
		shift  uint
		shards int
	}
	const big = 3*MorselItems + 1234 // not a multiple of MorselItems
	oneOwner := make([]int32, big)
	for i := range oneOwner {
		oneOwner[i] = 5<<4 | int32(i&15) // every tuple in shard 5
	}
	inputs := []input{
		{"uniform", ownerKeys(big, rel.Uniform, 1, 4, 16), 4, 16},
		{"high-skew", ownerKeys(big, rel.HighSkew, 2, 4, 16), 4, 16},
		{"all-one-owner", oneOwner, 4, 16},
		{"empty", nil, 4, 16},
		{"one-shard", ownerKeys(big, rel.Uniform, 3, 6, 1), 6, 1},
		{"few-shards-no-shift", ownerKeys(MorselItems, rel.Uniform, 4, 0, 4), 0, 4},
		{"sub-morsel", ownerKeys(777, rel.HighSkew, 5, 2, 8), 2, 8},
	}
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var x OwnerIndex
		rng := rand.New(rand.NewSource(int64(workers)))
		for _, in := range inputs {
			x.Build(p, in.key, in.shift, in.shards)
			n := len(in.key)
			ranges := [][2]int{{0, n}, {0, 0}, {n, n}}
			for len(ranges) < 12 {
				lo := rng.Intn(n + 1)
				ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
			}
			for _, r := range ranges {
				for shard := 0; shard < in.shards; shard++ {
					got := x.Shard(shard, r[0], r[1])
					want := filterScan(in.key, in.shift, shard, r[0], r[1])
					if !slices.Equal(got, want) {
						t.Fatalf("workers=%d %s shard %d [%d,%d): got %d indices, want the filter scan's %d",
							workers, in.name, shard, r[0], r[1], len(got), len(want))
					}
				}
			}
		}
		p.Close()
	}
}

// TestOwnerIndexSharedPool builds indexes from several goroutines through
// one pool at once, as concurrent queries on the service's resident pool do.
func TestOwnerIndexSharedPool(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	key := ownerKeys(2*MorselItems+99, rel.HighSkew, 7, 3, 16)
	want := make([][]int32, 16)
	for s := range want {
		want[s] = filterScan(key, 3, s, 0, len(key))
	}
	errs := Collect(p, 6, func(int) error {
		var x OwnerIndex
		x.Build(p, key, 3, 16)
		for s := range want {
			if !slices.Equal(x.Shard(s, 0, len(key)), want[s]) {
				return fmt.Errorf("shard %d differs", s)
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkOwnerIndex prices the index build the insert kernels' savings
// must net out: one Build over 2^20 keys (slab reused, as within a run).
func BenchmarkOwnerIndex(b *testing.B) {
	const n = 1 << 20
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		key := ownerKeys(n, dist, 1, 4, DefaultShards)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/pool=%d", dist, workers), func(b *testing.B) {
				p := NewPool(workers)
				defer p.Close()
				var x OwnerIndex
				x.Build(p, key, 4, DefaultShards)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x.Build(p, key, 4, DefaultShards)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			})
		}
	}
}
