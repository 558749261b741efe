package core

import (
	"fmt"
	"reflect"
	"testing"

	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// TestStreamMaterializeMatchesReference: the morsel-parallel streamed
// producer is bit-identical to the single-stream rel.JoinMaterialize (and
// so to the brute-force oracle's reference join) across sizes straddling
// the morsel-grid boundary, skews and selectivities — including the empty
// and zero-match shapes, which must yield the zero relation with nil
// columns.
func TestStreamMaterializeMatchesReference(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()

	cases := []struct {
		nr, ns int
		dist   rel.Distribution
		sel    float64
	}{
		{nr: 1000, ns: 500, dist: rel.Uniform, sel: 1.0},
		{nr: 1 << 14, ns: 1 << 14, dist: rel.Uniform, sel: 0.5}, // exactly one morsel
		{nr: 1<<14 + 1, ns: 1<<14 + 1, dist: rel.LowSkew, sel: 0.9},
		{nr: 30000, ns: 50000, dist: rel.HighSkew, sel: 0.7}, // several morsels
		{nr: 2000, ns: 3000, dist: rel.Uniform, sel: 0.0},    // zero matches
		{nr: 1, ns: 1, dist: rel.Uniform, sel: 1.0},
		{nr: 0, ns: 100, dist: rel.Uniform, sel: 1.0}, // empty build side
		{nr: 100, ns: 0, dist: rel.Uniform, sel: 1.0}, // empty probe side
	}
	for _, tc := range cases {
		r := rel.Gen{N: tc.nr, Dist: tc.dist, Seed: 7}.Build()
		s := rel.Gen{N: tc.ns, Dist: tc.dist, Seed: 8}.Probe(r, tc.sel)
		want := rel.JoinMaterialize(r, s)
		got := StreamMaterialize(pool, rel.KeyCounts(r), s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("nr=%d ns=%d %v sel=%.1f: streamed output diverges from JoinMaterialize",
				tc.nr, tc.ns, tc.dist, tc.sel)
		}
		if tc.nr > 0 && tc.ns > 0 {
			if oref := oracle.Join(r, s); !reflect.DeepEqual(got, oref) {
				t.Errorf("nr=%d ns=%d %v sel=%.1f: streamed output diverges from the oracle",
					tc.nr, tc.ns, tc.dist, tc.sel)
			}
		}
	}
}

// TestStreamMaterializeWorkersInvariance: the streamed producer's output is
// a pure function of its inputs — pools of 1, 2 and 8 workers, and the nil
// (inline) pool, produce identical bytes.
func TestStreamMaterializeWorkersInvariance(t *testing.T) {
	r := rel.Gen{N: 40000, Dist: rel.LowSkew, Seed: 5}.Build()
	s := rel.Gen{N: 60000, Dist: rel.LowSkew, Seed: 6}.Probe(r, 0.8)
	counts := rel.KeyCounts(r)

	ref := StreamMaterialize(nil, counts, s)
	if ref.Len() == 0 {
		t.Fatal("fixture produced no matches")
	}
	for _, workers := range []int{1, 2, 8} {
		pool := sched.NewPool(workers)
		got := StreamMaterialize(pool, counts, s)
		pool.Close()
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: streamed output differs from the inline reference", workers)
		}
	}
}

// mapStreamMaterialize is StreamMaterialize as it was before rel.Counts and
// the recycler: the same three-step construction over a Go map, into
// columns from make. It stays as the reference.
func mapStreamMaterialize(pool *sched.Pool, counts map[int32]int32, s rel.Relation) rel.Relation {
	n := s.Len()
	if n == 0 || len(counts) == 0 {
		return rel.Relation{}
	}
	perMorsel := sched.CollectRange(pool, 0, n, func(mlo, mhi int) int64 {
		var c int64
		for _, k := range s.Keys[mlo:mhi] {
			c += int64(counts[k])
		}
		return c
	})
	offsets := make([]int64, len(perMorsel))
	var total int64
	for i, c := range perMorsel {
		offsets[i] = total
		total += c
	}
	if total == 0 {
		return rel.Relation{}
	}
	out := rel.Relation{RIDs: make([]int32, total), Keys: make([]int32, total)}
	pool.ForEach(len(perMorsel), func(i int) {
		mlo := i * sched.MorselItems
		mhi := min(mlo+sched.MorselItems, n)
		at := offsets[i]
		for _, k := range s.Keys[mlo:mhi] {
			for c := counts[k]; c > 0; c-- {
				out.RIDs[at] = int32(at)
				out.Keys[at] = k
				at++
			}
		}
	})
	return out
}

// TestStreamMaterializeMatchesMapReference: the flat-table, slab-backed
// producer writes the bytes the map-backed one wrote, on pools nil, 1 and
// 2, with duplicate build keys (an intermediate as the build side) and
// skewed probes. Each result is released and the next call runs on the
// returned slabs — poisoned under -race — so a word the fill pass does not
// write shows as a difference.
func TestStreamMaterializeMatchesMapReference(t *testing.T) {
	base := rel.Gen{N: 20000, Seed: 11}.Build()
	dup := rel.Gen{N: 50000, Dist: rel.LowSkew, Seed: 12}.Probe(base, 0.9) // duplicate keys
	for _, tc := range []struct {
		name string
		r, s rel.Relation
	}{
		{"distinct build, uniform probe", base, rel.Gen{N: 70000, Seed: 13}.Probe(base, 0.6)},
		{"distinct build, high-skew probe", base, rel.Gen{N: 40000, Dist: rel.HighSkew, Seed: 14}.Probe(base, 1.0)},
		{"duplicate build keys", dup, rel.Gen{N: 1<<14 + 3, Seed: 15}.Probe(base, 0.8)},
		{"no matches", base, rel.Gen{N: 5000, Seed: 16}.Probe(base, 0)},
	} {
		ref := map[int32]int32{}
		for _, k := range tc.r.Keys {
			ref[k]++
		}
		counts := rel.KeyCounts(tc.r)
		for _, workers := range []int{0, 1, 2} {
			var pool *sched.Pool // nil runs the grid inline
			if workers > 0 {
				pool = sched.NewPool(workers)
			}
			want := mapStreamMaterialize(pool, ref, tc.s)
			for round := 0; round < 2; round++ {
				got := StreamMaterialize(pool, counts, tc.s)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, pool %d, round %d: output differs from the map-backed reference", tc.name, workers, round)
				}
				got.Release()
			}
			pool.Close()
		}
		counts.Release()
	}
}

// streamMaterializeRef is StreamMaterialize as it was before the
// multiplicity slab: a count pass summing the table over each morsel, the
// prefix sum, and a fill pass that looks every key up again. It stays as
// the reference.
func streamMaterializeRef(pool *sched.Pool, counts rel.Counts, s rel.Relation) rel.Relation {
	n := s.Len()
	if n == 0 || counts.Len() == 0 {
		return rel.Relation{}
	}
	perMorsel := sched.CollectRange(pool, 0, n, func(mlo, mhi int) int64 {
		return counts.Matches(s.Keys[mlo:mhi])
	})
	offsets := make([]int64, len(perMorsel))
	var total int64
	for i, c := range perMorsel {
		offsets[i] = total
		total += c
	}
	if total == 0 {
		return rel.Relation{}
	}
	out := rel.Recycled(int(total))
	pool.ForEach(len(perMorsel), func(i int) {
		mlo := i * sched.MorselItems
		mhi := min(mlo+sched.MorselItems, n)
		at := offsets[i]
		for _, k := range s.Keys[mlo:mhi] {
			for c := counts.Of(k); c > 0; c-- {
				out.RIDs[at] = int32(at)
				out.Keys[at] = k
				at++
			}
		}
	})
	return out
}

// TestMultiplicitiesMatchReference: every probe tuple's multiplicity is its
// key's count in the table and the total is Counts.Matches; StreamFill fed
// from them, and StreamMaterialize, write the bytes the three-pass producer
// wrote, on pools of 1, 2 and 4 — also for a chunk Of[lo:hi] whose lo is
// off the morsel grid, the skew fallback's shape, which fills on a grid of
// its own. Every slab goes back before the next call, so under -race each
// call runs on poisoned memory.
func TestMultiplicitiesMatchReference(t *testing.T) {
	base := rel.Gen{N: 30000, Seed: 21}.Build()
	dup := rel.Gen{N: 50000, Dist: rel.LowSkew, Seed: 22}.Probe(base, 0.9) // duplicate keys
	uniform := rel.Gen{N: 3*sched.MorselItems + 5, Seed: 23}.Probe(base, 0.7)
	for _, tc := range []struct {
		name   string
		r, s   rel.Relation
		lo, hi int // the chunk of s to fill; hi 0 is all of s
	}{
		{name: "uniform", r: base, s: uniform},
		{name: "high skew", r: base, s: rel.Gen{N: 40000, Dist: rel.HighSkew, Seed: 24}.Probe(base, 1.0)},
		{name: "duplicate build keys", r: dup, s: rel.Gen{N: 1<<14 + 3, Seed: 25}.Probe(base, 0.8)},
		{name: "empty probe", r: base},
		{name: "zero matches", r: base, s: rel.Gen{N: 5000, Seed: 26}.Probe(base, 0)},
		{name: "chunk off the grid", r: base, s: uniform, lo: 5000, hi: 5000 + 2*sched.MorselItems - 77},
	} {
		counts := rel.KeyCounts(tc.r)
		hi := tc.hi
		if hi == 0 {
			hi = tc.s.Len()
		}
		chunk := tc.s.Slice(tc.lo, hi)
		for _, workers := range []int{1, 2, 4} {
			pool := sched.NewPool(workers)
			want := streamMaterializeRef(pool, counts, chunk)
			for round := 0; round < 2; round++ {
				mult := Multiplicities(pool, counts, tc.s.Keys)
				if len(mult.Of) != tc.s.Len() || mult.Total != counts.Matches(tc.s.Keys) {
					t.Fatalf("%s, pool %d: %d multiplicities totalling %d, want %d totalling %d",
						tc.name, workers, len(mult.Of), mult.Total, tc.s.Len(), counts.Matches(tc.s.Keys))
				}
				for i, k := range tc.s.Keys {
					if mult.Of[i] != counts.Of(k) {
						t.Fatalf("%s, pool %d: multiplicity %d of tuple %d, the table holds %d", tc.name, workers, mult.Of[i], i, counts.Of(k))
					}
				}
				got := StreamFill(pool, chunk, mult.Of[tc.lo:hi])
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, pool %d, round %d: StreamFill differs from the three-pass producer", tc.name, workers, round)
				}
				got.Release()
				mult.Release()
				got = StreamMaterialize(pool, counts, chunk)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, pool %d, round %d: StreamMaterialize differs from the three-pass producer", tc.name, workers, round)
				}
				got.Release()
			}
			want.Release()
			pool.Close()
		}
		counts.Release()
	}
}

// BenchmarkStreamMaterialize measures the hand-off's producer as a chain
// runs it — one output produced and released per iteration, the count table
// built outside the timer (BenchmarkKeyCounts in internal/rel prices it).
// Per pool, the ref row is the three-pass producer streamMaterializeRef and
// the mult row what a chain runs, Multiplicities (whose total its pre-check
// reads) then StreamFill from the slab; the mult row reports its speed-up
// over the ref row as x-ref. Both fail if their output differs from
// rel.JoinMaterialize's.
func BenchmarkStreamMaterialize(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		r := rel.Gen{N: n, Seed: 1}.Build()
		counts := rel.KeyCounts(r)
		for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
			s := rel.Gen{N: n, Dist: dist, Seed: 2}.Probe(r, 1.0)
			want := rel.JoinMaterialize(r, s)
			for _, workers := range []int{1, 2} {
				pool := sched.NewPool(workers)
				var refNS float64
				for _, row := range []struct {
					name    string
					produce func() rel.Relation
				}{
					{"ref", func() rel.Relation { return streamMaterializeRef(pool, counts, s) }},
					{"mult", func() rel.Relation {
						mult := Multiplicities(pool, counts, s.Keys)
						defer mult.Release()
						return StreamFill(pool, s, mult.Of)
					}},
				} {
					b.Run(fmt.Sprintf("%v/n=%d/pool=%d/%s", dist, n, workers, row.name), func(b *testing.B) {
						b.ReportAllocs()
						var out rel.Relation
						for i := 0; i < b.N; i++ {
							out.Release()
							out = row.produce()
						}
						ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
						b.ReportMetric(ns/float64(n), "ns/tuple")
						if !reflect.DeepEqual(out, want) {
							b.Fatalf("%s: output differs from rel.JoinMaterialize", row.name)
						}
						out.Release()
						if row.name == "ref" {
							refNS = ns
						} else if refNS > 0 {
							b.ReportMetric(refNS/ns, "x-ref")
						}
					})
				}
				pool.Close()
			}
		}
		counts.Release()
	}
}
