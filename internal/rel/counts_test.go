package rel_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// mapKeyCounts is KeyCounts as it was before rel.Counts: the Go map every
// consumer of the hand-off used to index. It stays as the reference.
func mapKeyCounts(keys []int32) map[int32]int32 {
	counts := make(map[int32]int32, len(keys))
	for _, k := range keys {
		counts[k]++
	}
	return counts
}

// requireCountsEqualMap checks c against the map over the same column:
// every held key's multiplicity, Len, Max, and zero for keys next to held
// ones and for the extremes when they are absent.
func requireCountsEqualMap(t testing.TB, c rel.Counts, keys []int32) {
	t.Helper()
	want := mapKeyCounts(keys)
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, the map holds %d keys", c.Len(), len(want))
	}
	var max int32
	for k, n := range want {
		if got := c.Of(k); got != n {
			t.Fatalf("Of(%d) = %d, the map says %d", k, got, n)
		}
		if n > max {
			max = n
		}
		for _, absent := range []int32{k + 1, k - 1, ^k, math.MinInt32, math.MaxInt32, 0} {
			if got := c.Of(absent); got != want[absent] {
				t.Fatalf("Of(%d) = %d, the map says %d", absent, got, want[absent])
			}
		}
	}
	if c.Max() != max {
		t.Fatalf("Max = %d, the map's largest count is %d", c.Max(), max)
	}
}

func TestCountsMatchesMap(t *testing.T) {
	seq := func(n, start, stride int) []int32 {
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(start + i*stride)
		}
		return keys
	}
	build := rel.Gen{N: 1 << 15, Seed: 3}.Build()
	cases := map[string][]int32{
		"empty":        nil,
		"one key":      {42},
		"one key × n":  make([]int32, 5000), // key 0, the slot array's own zero
		"extremes":     {math.MinInt32, math.MaxInt32, -1, 0, 1, math.MinInt32, -1, -1},
		"negative":     seq(3000, -1500, 1),
		"sequential":   seq(1<<14, 1, 1),
		"stride 2^16":  seq(1<<14, 0, 1<<16),
		"stride 2^16-": seq(1<<14, math.MinInt32, 1<<16),
		"permutation":  build.Keys,
		"high skew":    rel.Gen{N: 1 << 15, Dist: rel.HighSkew, Seed: 4}.Probe(build, 0.7).Keys,
	}
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) {
			c := rel.CountKeys(keys)
			requireCountsEqualMap(t, c, keys)
			if got := rel.KeyCounts(rel.Relation{Keys: keys}); got.Len() != c.Len() || got.Max() != c.Max() {
				t.Fatalf("KeyCounts (%d keys, max %d) disagrees with CountKeys (%d, %d)", got.Len(), got.Max(), c.Len(), c.Max())
			}
			c.Release()
			if c.Len() != 0 || c.Max() != 0 || c.Of(42) != 0 {
				t.Fatal("a released table is not the empty table")
			}
			c.Release() // releasing the empty table is a no-op
		})
	}
}

// TestCountsOnPartitionLocalKeys is the decorrelation check: a table built
// over one partition of shard.SplitAt at a level holds only keys that agree
// on three bits of that level's Murmur2 — and, nested as the spiller nests
// them, of every level above it. A table hash correlated with any of them would fold such
// a column into a fraction of its slots; a decorrelated one keeps the mean
// probe length of a hit where linear probing at load ≤ 1/2 puts it (1.5 in
// expectation at exactly one half).
func TestCountsOnPartitionLocalKeys(t *testing.T) {
	const meanBound, partBound = 1.6, 2.5
	r := rel.Gen{N: 1 << 17, Seed: 9}.Build()
	var probes, keys int
	var walk func(cur rel.Relation, level int)
	walk = func(cur rel.Relation, level int) {
		if level > 2 {
			return
		}
		split, _ := shard.SplitAt(nil, level, cur)
		for p, part := range split[0] {
			c := rel.KeyCounts(part)
			requireCountsEqualMap(t, c, part.Keys)
			var sum int
			for _, k := range part.Keys {
				sum += c.ProbeLen(k)
			}
			c.Release()
			if n := part.Len(); n >= 64 && float64(sum)/float64(n) > partBound {
				t.Errorf("level %d partition %d (%d keys): mean probe length %.2f, above %.1f", level, p, n, float64(sum)/float64(n), partBound)
			}
			probes, keys = probes+sum, keys+part.Len()
			walk(part, level+1)
		}
	}
	walk(r, 0)
	mean := float64(probes) / float64(keys)
	t.Logf("mean probe length over %d keys in nested partitions of levels 0-2: %.3f", keys, mean)
	if mean > meanBound {
		t.Errorf("mean probe length %.3f over partition-local tables, above %.1f: the table hash is correlated with the partitioner", mean, meanBound)
	}
}

// TestCountsRestrict: Restrict counts, in a long column, exactly the keys
// the receiver holds.
func TestCountsRestrict(t *testing.T) {
	build := rel.Gen{N: 20000, Seed: 5}.Build()
	sample := rel.Gen{N: 3000, Dist: rel.LowSkew, Seed: 6}.Probe(build, 0.5).Keys
	held := rel.CountKeys(sample)
	defer held.Release()
	column := append(append([]int32(nil), build.Keys...), build.Keys[:5000]...)
	got := held.Restrict(column)
	defer got.Release()

	inSample := mapKeyCounts(sample)
	var kept []int32
	for _, k := range column {
		if inSample[k] > 0 {
			kept = append(kept, k)
		}
	}
	requireCountsEqualMap(t, got, kept)
	if empty := (rel.Counts{}).Restrict(column); empty.Len() != 0 {
		t.Fatalf("the empty table restricted a column to %d keys", empty.Len())
	}
}

// FuzzKeyCounts: any key column, with as many duplicates as the modulus
// forces, counts exactly as the map counts it.
func FuzzKeyCounts(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 255, 255, 255, 255}, uint32(0))
	f.Add([]byte{0, 0, 0, 128, 255, 255, 255, 127, 0, 0, 0, 128}, uint32(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint32(7))
	f.Fuzz(func(t *testing.T, data []byte, mod uint32) {
		keys := make([]int32, len(data)/4)
		for i := range keys {
			k := binary.LittleEndian.Uint32(data[4*i:])
			if mod > 0 {
				k %= mod
			}
			keys[i] = int32(k)
		}
		c := rel.CountKeys(keys)
		defer c.Release()
		requireCountsEqualMap(t, c, keys)
	})
}

// BenchmarkKeyCounts measures the hand-off's count-table build, one table
// built and released per iteration as a pipeline chain does: a build
// side's distinct keys, and an intermediate's column with a quarter of the
// tuples on one key.
func BenchmarkKeyCounts(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		build := rel.Gen{N: n, Seed: 1}.Build()
		for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
			in := build
			if dist != rel.Uniform {
				in = rel.Gen{N: n, Dist: dist, Seed: 2}.Probe(build, 1.0)
			}
			b.Run(fmt.Sprintf("%v/n=%d", dist, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := rel.KeyCounts(in)
					c.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
			})
		}
	}
}
