package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
)

// spillShape is one spilled four-source pipeline: relations, the catalog
// headroom left above them, and what the spiller is expected to do with it.
type spillShape struct {
	name     string
	rels     []rel.Relation
	headroom int64
	// digest is sha256 over the JSON of the whole PipelineResult as the
	// map-backed hand-off of PR 21 produced it (recorded by running this
	// file, digests blanked, on that tree): every match count, simulated
	// time, spill and peak gauge of every step, in one literal.
	digest string
	check  func(t *testing.T, pr *PipelineResult)
}

func spillShapes() []spillShape {
	r := rel.Gen{N: 1 << 13, Seed: 1}.Build()
	uniform := []rel.Relation{r,
		rel.Gen{N: 1 << 13, Seed: 2}.Probe(r, 1.0),
		rel.Gen{N: 1 << 13, Seed: 3}.Probe(r, 1.0),
		rel.Gen{N: 1 << 11, Seed: 4}.Probe(r, 0.5),
	}
	// A build side three fifths of which is one key: no partitioner can
	// split it, so the spiller streams. The probes mostly hit the light
	// keys and carry the heavy one a few times each, which keeps the
	// intermediates small enough to test with.
	heavy := rel.Gen{N: 1 << 10, Seed: 5}.Build()
	nHeavy := heavy.Len() * 3 / 5
	for i := 0; i < nHeavy; i++ {
		heavy.Keys[i] = heavy.Keys[0]
	}
	light := heavy.Slice(nHeavy, heavy.Len())
	probe := func(n int, seed int64, sel float64, heavyTuples int) rel.Relation {
		p := rel.Gen{N: n, Seed: seed}.Probe(light, sel)
		for i := 0; i < heavyTuples; i++ {
			p.Keys[i*7] = heavy.Keys[0]
		}
		return p
	}
	skewed := []rel.Relation{heavy, probe(1<<11, 6, 0.5, 4), probe(1<<10, 7, 0.5, 2), probe(1<<9, 8, 1.0, 1)}
	return []spillShape{
		{name: "depth 0", rels: uniform, headroom: 16 << 10,
			digest: "8323e49d90012c2d5611e85b633be66e5b435ec89cc1e6fa1771abfb90f30d03",
			check: func(t *testing.T, pr *PipelineResult) {
				if pr.SpilledPartitions == 0 || pr.SpillDepth != 0 {
					t.Errorf("spilled %d partitions to depth %d, want some at depth 0", pr.SpilledPartitions, pr.SpillDepth)
				}
			}},
		{name: "depth ≥ 1", rels: uniform, headroom: 2 << 10,
			digest: "6a68c9b81a8a6085d4cffe4016939e7aa99f1b4753fcb69107ca9a018ccbbb75",
			check: func(t *testing.T, pr *PipelineResult) {
				if pr.SpillDepth < 1 {
					t.Errorf("spill depth %d, want the partitions to repartition", pr.SpillDepth)
				}
			}},
		{name: "streaming fallback", rels: skewed, headroom: 4 << 10,
			digest: "3f79c09bf7789e31d6054697ab52cf0701d68210ac79988c220ebb0facc6ba87",
			check: func(t *testing.T, pr *PipelineResult) {
				if pr.IntermediateBytes <= 4<<10 || pr.SpilledPartitions != 0 {
					t.Errorf("%d intermediate bytes, %d spilled partitions: want an overflow that streams without partitioning", pr.IntermediateBytes, pr.SpilledPartitions)
				}
			}},
	}
}

var spillNames = []string{"r", "s", "u", "v"}

// load starts a service whose catalog holds the shape's relations plus its
// headroom.
func (sh *spillShape) load(t testing.TB, workers int) *Service {
	t.Helper()
	budget := sh.headroom
	for _, r := range sh.rels {
		budget += r.Bytes()
	}
	svc := New(Config{Workers: workers, CatalogBytes: budget})
	t.Cleanup(func() { svc.Close() })
	for i, r := range sh.rels {
		if _, err := svc.LoadRelation(spillNames[i], r); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

func (sh *spillShape) run(t testing.TB, svc *Service) *PipelineResult {
	t.Helper()
	spec := PipelineSpec{Opt: core.Options{Delta: 0.25, PilotItems: 1 << 8}, Auto: true, DeclaredOrder: true}
	for _, name := range spillNames {
		spec.Sources = append(spec.Sources, PipelineSource{Name: name})
	}
	pr, err := svc.RunPipeline(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return normalizeCacheHits(pr)
}

// TestSpilledPipelineUnchanged: the flat count table, its once-per-build-
// side derivation and the recycled hand-off buffers change no number of a
// spilled pipeline. Each shape — partitions resident at depth 0, recursive
// repartitioning, and the streaming fallback of an indivisible key — must
// reproduce the PipelineResult the map-backed hand-off produced, twice and
// again on another worker count: the later runs execute on
// slabs the earlier ones released, which a -race build hands back poisoned,
// so a table or column read past what its owner wrote, or released while
// still in use, changes a number here.
func TestSpilledPipelineUnchanged(t *testing.T) {
	for _, sh := range spillShapes() {
		t.Run(sh.name, func(t *testing.T) {
			svc := sh.load(t, 2)
			first := sh.run(t, svc)
			sh.check(t, first)
			if want := oracle.PipelineCount(sh.rels); first.Final.Matches != want {
				t.Fatalf("%d matches, the oracle counts %d", first.Final.Matches, want)
			}
			enc, err := json.Marshal(first)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != sh.digest {
				t.Errorf("PipelineResult digest %s, want %s (TotalNS %v)", got, sh.digest, first.TotalNS)
			}
			// A fresh service, so the plan cache is as cold as it was for the
			// first run; the recycler is the process's and stays warm.
			if again := sh.run(t, sh.load(t, 2)); !reflect.DeepEqual(again, first) {
				t.Error("the second run, on recycled slabs, differs from the first")
			}
			if other := sh.run(t, sh.load(t, 1)); !reflect.DeepEqual(other, first) {
				t.Error("a one-worker service differs from the two-worker one")
			}
			var resident int64
			for _, r := range sh.rels {
				resident += r.Bytes()
			}
			if got := svc.Stats().Catalog.Bytes; got != resident {
				t.Errorf("%d catalog bytes after the runs, the relations occupy %d: a transient reservation was not returned", got, resident)
			}
		})
	}
}

// TestSpillSteadyStateAllocationCeiling: once the recycler is warm, a
// spilled pipeline's count tables and hand-off buffers come from it and go
// back to it, and what a run still allocates is shard.SplitAt's columns —
// one copy of the inputs per repartitioning level, 3.4 MB here — plus the
// small records of its two dozen partition joins. The shape is the
// benchmark's pipeline_spill (r, s, u of 2^17 tuples, v a quarter, 256 KB
// of headroom), which allocated 25 MB per run through the map-backed
// hand-off and 4.55 MB now; the issue asked for 12 MB, but every single
// lost Release costs less than that (the cheapest, one intermediate per
// partition, 1.2 MB), so the ceiling sits just above what is measured. The
// collector is off for the duration so that no slab is freed in between.
func TestSpillSteadyStateAllocationCeiling(t *testing.T) {
	const n, ceiling = 1 << 17, 5 << 20
	r := rel.Gen{N: n, Seed: 1}.Build()
	sh := spillShape{headroom: 256 << 10, rels: []rel.Relation{r,
		rel.Gen{N: n, Seed: 2}.Probe(r, 1.0),
		rel.Gen{N: n, Seed: 3}.Probe(r, 1.0),
		rel.Gen{N: n / 4, Seed: 4}.Probe(r, 0.5),
	}}
	svc := sh.load(t, 2)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if pr := sh.run(t, svc); pr.SpilledPartitions == 0 {
			t.Fatal("the pipeline did not spill")
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	warm := run()
	t.Logf("first run allocated %d B, a warm run %d B (ceiling %d B)", first, warm, ceiling)
	if warm > ceiling {
		t.Fatalf("a warm spilled pipeline over 2^17-tuple relations allocates %d B, above the ceiling of %d B: a count table or a hand-off buffer is not going back to the recycler", warm, ceiling)
	}
}
