package plan

import (
	"fmt"
	"testing"

	"apujoin/internal/rel"
)

// mapMeasureWorkload and mapHeavyShare are MeasureWorkload and the counting
// loop SkewBucketOf and the catalog each carried before rel.Counts: Go maps
// over the sample. They stay as the reference.
func mapMeasureWorkload(r, s rel.Relation) Workload {
	if s.Len() == 0 || r.Len() == 0 {
		return Workload{}
	}
	sample := s.KeySample(WorkloadSample)
	present := make(map[int32]bool, len(sample))
	for _, k := range sample {
		present[k] = false
	}
	for _, k := range r.Keys {
		if v, ok := present[k]; ok && !v {
			present[k] = true
		}
	}
	return Workload{
		SkewBucket: SkewBucketOf(mapHeavyShare(sample)),
		SelBucket:  SelBucketOf(sample, func(k int32) bool { return present[k] }),
	}
}

func mapHeavyShare(sample []int32) float64 {
	if len(sample) == 0 {
		return 0
	}
	counts := make(map[int32]int, len(sample))
	maxCount := 0
	for _, k := range sample {
		counts[k]++
		if counts[k] > maxCount {
			maxCount = counts[k]
		}
	}
	return float64(maxCount) / float64(len(sample))
}

// TestWorkloadBucketsMatchMapReference: the three ways a sub-join's buckets
// are now obtained — MeasureWorkload (a sample-sized table, R scanned),
// CountsWorkload (the chain's build counts, R not read) and PairWorkload
// over ingest statistics (the catalog's: stored sample, stored skew bucket,
// membership in the whole relation's count table) — equal the map-backed measurement, so every path
// fingerprints a pair into the same plan-cache slot as before. The build
// side is tried with distinct keys and as an intermediate with duplicates;
// the sizes straddle WorkloadSample so both the strided and the whole-
// column sample occur.
func TestWorkloadBucketsMatchMapReference(t *testing.T) {
	base := rel.Gen{N: 1 << 14, Seed: 31}.Build()
	builds := map[string]rel.Relation{
		"distinct":   base,
		"duplicates": rel.Gen{N: 1 << 14, Dist: rel.LowSkew, Seed: 32}.Probe(base, 0.8),
	}
	for bname, r := range builds {
		for _, dist := range []rel.Distribution{rel.Uniform, rel.LowSkew, rel.HighSkew} {
			for _, sel := range []float64{0, 0.5, 1} {
				for _, n := range []int{1000, 1 << 15} {
					s := rel.Gen{N: n, Dist: dist, Seed: 33}.Probe(base, sel)
					name := fmt.Sprintf("%s/%v/sel=%v/n=%d", bname, dist, sel, n)
					want := mapMeasureWorkload(r, s)

					if got := MeasureWorkload(r, s); got != want {
						t.Errorf("%s: MeasureWorkload %+v, the map reference %+v", name, got, want)
					}
					counts := rel.KeyCounts(r)
					if got := CountsWorkload(counts, s); got != want {
						t.Errorf("%s: CountsWorkload %+v, the map reference %+v", name, got, want)
					}
					sample := s.KeySample(WorkloadSample)
					if got, ref := HeavyShare(sample), mapHeavyShare(sample); got != ref {
						t.Errorf("%s: HeavyShare %v, the map reference %v", name, got, ref)
					}
					if got := PairWorkload(sample, SkewBucketOf(HeavyShare(sample)), func(k int32) bool { return counts.Of(k) > 0 }); got != want {
						t.Errorf("%s: PairWorkload over ingest statistics %+v, the map reference %+v", name, got, want)
					}
					counts.Release()
				}
			}
		}
	}
	for _, empty := range [][2]rel.Relation{{{}, base}, {base, {}}} {
		if got := MeasureWorkload(empty[0], empty[1]); got != (Workload{}) {
			t.Errorf("an empty side measured %+v, want the zero workload", got)
		}
		counts := rel.KeyCounts(empty[0])
		if got := CountsWorkload(counts, empty[1]); got != (Workload{}) {
			t.Errorf("an empty side measured %+v from its counts, want the zero workload", got)
		}
		counts.Release()
	}
}
