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

// filterScan is the decomposition the scatter replaces: the tuples of
// [lo,hi) in bucket b, in index order.
func filterScan(key []int32, shift uint, b, lo, hi int) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		if int(key[i]>>shift) == b {
			out = append(out, int32(i))
		}
	}
	return out
}

// moved scatters the tuple indices of key — and, when cols > 1, two
// columns derived from them — with x, cutting [0,n) into ranges moved in a
// shuffled order, and returns the output columns.
func moved(p *Pool, x *Scatter, n, cols int, rng *rand.Rand) Cols {
	var src, dst Cols
	for c := 0; c < cols; c++ {
		src[c], dst[c] = make([]int32, n), make([]int32, n)
		for i := range src[c] {
			src[c][i] = int32(i*(c+1) + c)
		}
	}
	cuts := []int{0, n}
	for range rng.Intn(4) {
		cuts = append(cuts, rng.Intn(n+1))
	}
	slices.Sort(cuts)
	for _, k := range rng.Perm(len(cuts) - 1) {
		x.Move(p, cuts[k], cuts[k+1], dst, src)
	}
	return dst
}

// TestScatterMatchesFilterScan: for every input shape, pool size and
// column count, and with [0,n) moved as several ranges in a shuffled order,
// each bucket's slots hold exactly the filter scan's tuples, in order, and
// for random [lo,hi) the slots between Cut(lo) and Cut(hi) are the filter
// scan of [lo,hi). One Scatter value is set up across all cases of a pool
// size, so grid reuse (larger → smaller → larger inputs) is covered too.
func TestScatterMatchesFilterScan(t *testing.T) {
	type input struct {
		name    string
		key     []int32
		shift   uint
		buckets int
	}
	const big = 3*MorselItems + 1234 // not a multiple of MorselItems
	oneOwner := make([]int32, big)
	for i := range oneOwner {
		oneOwner[i] = 5<<4 | int32(i&15) // every tuple in bucket 5
	}
	inputs := []input{
		{"uniform", ownerKeys(big, rel.Uniform, 1, 4, 16), 4, 16},
		{"high-skew", ownerKeys(big, rel.HighSkew, 2, 4, 16), 4, 16},
		{"all-one-owner", oneOwner, 4, 16},
		{"empty", nil, 4, 16},
		{"one-bucket", ownerKeys(big, rel.Uniform, 3, 6, 1), 6, 1},
		{"whole-morsels-no-shift", ownerKeys(2*MorselItems, rel.Uniform, 4, 0, 4), 0, 4},
		{"sub-morsel", ownerKeys(777, rel.HighSkew, 5, 2, 8), 2, 8},
		{"radix-fan-out", ownerKeys(big, rel.Uniform, 6, 0, maxBuckets), 0, maxBuckets},
	}
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var x Scatter
		rng := rand.New(rand.NewSource(int64(workers)))
		for _, in := range inputs {
			n := len(in.key)
			x.Setup(p, in.key, in.shift, in.buckets)
			for cols := 1; cols <= len(Cols{}); cols++ {
				out := moved(p, &x, n, cols, rng)
				name := fmt.Sprintf("workers=%d %s cols=%d", workers, in.name, cols)
				ranges := [][2]int{{0, n}, {0, 0}, {n, n}}
				for len(ranges) < 12 {
					lo := rng.Intn(n + 1)
					ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
				}
				for _, r := range ranges {
					from, to := make([]int32, in.buckets), make([]int32, in.buckets)
					x.Cut(r[0], from)
					x.Cut(r[1], to)
					for b := 0; b < in.buckets; b++ {
						want := filterScan(in.key, in.shift, b, r[0], r[1])
						for c := 0; c < cols; c++ {
							got := out[c][from[b]:to[b]]
							if len(got) != len(want) {
								t.Fatalf("%s bucket %d [%d,%d): %d slots, the filter scan finds %d tuples", name, b, r[0], r[1], len(got), len(want))
							}
							for j, i := range want {
								if got[j] != i*int32(c+1)+int32(c) {
									t.Fatalf("%s bucket %d [%d,%d) column %d: slot %d holds %d, want tuple %d's", name, b, r[0], r[1], c, int(from[b])+j, got[j], i)
								}
							}
						}
					}
				}
			}
		}
		x.Release()
		p.Close()
	}
}

// TestScatterSharedPool scatters from several goroutines through one pool
// at once, as concurrent queries on the service's resident pool do.
func TestScatterSharedPool(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	key := ownerKeys(2*MorselItems+99, rel.HighSkew, 7, 3, 16)
	n := len(key)
	var want []int32
	for b := 0; b < 16; b++ {
		want = append(want, filterScan(key, 3, b, 0, n)...)
	}
	errs := make([]error, 6)
	p.ForEach(len(errs), func(g int) {
		var x Scatter
		defer x.Release()
		x.Setup(p, key, 3, 16)
		out := moved(p, &x, n, 1, rand.New(rand.NewSource(int64(g))))
		if !slices.Equal(out[0], want) {
			errs[g] = fmt.Errorf("goroutine %d: the output is not the tuples in bucket order", g)
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkOwnerScatter prices the SHJ build's owner scatter, the price of
// its contiguous insert steps: Setup and one Move of (key, bucket, RID) by
// 16 owners over 2^20 tuples, the grid reused as within a run.
func BenchmarkOwnerScatter(b *testing.B) {
	const n = 1 << 20
	var src, dst Cols
	for c := range src {
		src[c], dst[c] = make([]int32, n), make([]int32, n)
	}
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		key := ownerKeys(n, dist, 1, 4, DefaultShards)
		src[1] = key
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/pool=%d", dist, workers), func(b *testing.B) {
				p := NewPool(workers)
				defer p.Close()
				var x Scatter
				defer x.Release()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					x.Setup(p, key, 4, DefaultShards)
					x.Move(p, 0, n, dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			})
		}
	}
}
