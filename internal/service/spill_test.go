package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// spillShape is one spilled four-source pipeline: relations, the catalog
// headroom left above them, and what the spiller is expected to do with it.
type spillShape struct {
	name     string
	rels     []rel.Relation
	headroom int64
	// digest is sha256 over the JSON of the whole PipelineResult: every
	// match count, simulated time, spill and peak gauge of every step, in
	// one literal. The streaming fallback's was recorded through the
	// map-backed hand-off the count tables replaced; the partitioned
	// shapes' since their spilled partition chains run their leader's
	// plans (recorded by running this file, digests blanked).
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
	// split it, so the spiller streams.
	skewed := skewedRels(1<<10*3/5, 1<<10*3/5)
	return []spillShape{
		{name: "depth 0", rels: uniform, headroom: 16 << 10,
			digest: "561e42b43be02baa82fc37e47bbf1e00b3411586ba04bea56847579557660331",
			check: func(t *testing.T, pr *PipelineResult) {
				if pr.SpilledPartitions == 0 || pr.SpillDepth != 0 {
					t.Errorf("spilled %d partitions to depth %d, want some at depth 0", pr.SpilledPartitions, pr.SpillDepth)
				}
			}},
		{name: "depth ≥ 1", rels: uniform, headroom: 2 << 10,
			digest: "a5f5fcb7d77ad8a7e109f791c05bb7353e03f316b15974c0ccddd44e0b712f88",
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

// skewedRels is a four-source pipeline over a 1024-tuple build side whose
// first nHeavy tuples share one key. The probes draw from the build tuples
// at index light and above and carry the heavy key a few times each, which
// keeps the intermediates small enough to test with.
func skewedRels(nHeavy, light int) []rel.Relation {
	heavy := rel.Gen{N: 1 << 10, Seed: 5}.Build()
	for i := 0; i < nHeavy; i++ {
		heavy.Keys[i] = heavy.Keys[0]
	}
	lightRel := heavy.Slice(light, heavy.Len())
	probe := func(n int, seed int64, sel float64, heavyTuples int) rel.Relation {
		p := rel.Gen{N: n, Seed: seed}.Probe(lightRel, sel)
		for i := 0; i < heavyTuples; i++ {
			p.Keys[i*7] = heavy.Keys[0]
		}
		return p
	}
	return []rel.Relation{heavy, probe(1<<11, 6, 0.5, 4), probe(1<<10, 7, 0.5, 2), probe(1<<9, 8, 1.0, 1)}
}

var spillNames = []string{"r", "s", "u", "v"}

// load starts a service whose catalog holds the shape's relations plus its
// headroom.
func (sh *spillShape) load(t testing.TB, workers int) *Service {
	return sh.loadOn(t, Config{Workers: workers})
}

// loadOn is load on a given configuration; the shape sets CatalogBytes.
func (sh *spillShape) loadOn(t testing.TB, cfg Config) *Service {
	t.Helper()
	cfg.CatalogBytes = sh.headroom + sh.resident()
	svc := New(cfg)
	t.Cleanup(func() { svc.Close() })
	for i, r := range sh.rels {
		if _, err := svc.LoadRelation(spillNames[i], r); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// spillSpec is the auto, declared-order pipeline over the first n of r,
// s, u, v.
func spillSpec(n int) PipelineSpec {
	spec := PipelineSpec{Opt: core.Options{Delta: 0.25, PilotItems: 1 << 8}, Auto: true, DeclaredOrder: true}
	for _, name := range spillNames[:n] {
		spec.Sources = append(spec.Sources, PipelineSource{Name: name})
	}
	return spec
}

// spec is the shape's pipeline on the service's pool, so the spilled
// partitions' chains run as concurrently as its worker count allows.
func (sh *spillShape) spec(svc *Service) PipelineSpec {
	spec := spillSpec(len(sh.rels))
	spec.Opt.Pool = svc.Pool()
	return spec
}

// exec runs the shape's pipeline.
func (sh *spillShape) exec(t testing.TB, svc *Service) *PipelineResult {
	t.Helper()
	pr, err := svc.RunPipeline(context.Background(), sh.spec(svc))
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// run runs the shape's pipeline and drops which plans were cache hits.
func (sh *spillShape) run(t testing.TB, svc *Service) *PipelineResult {
	t.Helper()
	return normalizeCacheHits(sh.exec(t, svc))
}

// resident is the bytes the shape's relations occupy in the catalog.
func (sh *spillShape) resident() int64 {
	var b int64
	for _, r := range sh.rels {
		b += r.Bytes()
	}
	return b
}

// TestSpilledPipelineUnchanged: the flat count table, its once-per-build-
// side derivation and the recycled hand-off buffers change no number of a
// spilled pipeline. Each shape — partitions resident at depth 0, recursive
// repartitioning, and the streaming fallback of an indivisible key — must
// reproduce its recorded PipelineResult, again on one, two and four
// workers: the later runs execute on
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
			// Fresh services, so the plan cache is as cold as it was for the
			// first run; the recycler is the process's and stays warm.
			for _, workers := range []int{1, 2, 4} {
				if other := sh.run(t, sh.load(t, workers)); !reflect.DeepEqual(other, first) {
					t.Errorf("a run on %d workers, on recycled slabs, differs from the first", workers)
				}
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
// pipeline's split slabs, count tables, multiplicity slabs, planner samples
// and hand-off buffers come from it and go back to it, and what a run still
// allocates is the small records of its joins. The spilled shape is the
// benchmark's pipeline_spill (r, s, u of 2^17 tuples, v a quarter, 256 KB
// of headroom): a warm run allocates about 0.44 MB, where it allocated
// 25 MB through the map-backed hand-off and 4.55 MB while the splits made
// fresh columns (3.4 MB of them). Two more shapes cover the other owners of
// a multiplicity slab: a resident chain that derives two steps' slabs, and
// a heavy-key build side that the skew fallback streams. The eight
// per-partition slabs of the spilled shape are 512 KB together, and the
// other shapes' first probes are 2^18 tuples, 1 MB of multiplicities, so any
// one lost Release puts a warm run over the 0.75 MB ceiling. Each shape
// starts on a recycler emptied of spares, which would otherwise stand in
// for a lost slab, and the collector is off for the duration so that no
// slab is freed in between. The service has one worker, so the partition
// chains run in partition order and a warm run takes exactly the slabs the
// run before handed back; concurrent chains hold a different set of slabs
// at once on every schedule, and take a few runs to warm.
func TestSpillSteadyStateAllocationCeiling(t *testing.T) {
	const n, ceiling = 1 << 17, 3 << 18
	r := rel.Gen{N: n, Seed: 1}.Build()
	small := rel.Gen{N: n / 2, Seed: 5}.Build()
	const nHeavy = 1 << 10 * 3 / 5
	skewed := skewedRels(nHeavy, nHeavy)
	skewed[1] = rel.Gen{N: 2 * n, Seed: 6}.Probe(skewed[0].Slice(nHeavy, skewed[0].Len()), 0.01)
	for i := 0; i < 4; i++ {
		skewed[1].Keys[i*7] = skewed[0].Keys[0]
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		sh   spillShape
		path string
		took func(*PipelineResult) bool
	}{
		{spillShape{name: "spilled", headroom: 256 << 10, rels: []rel.Relation{r,
			rel.Gen{N: n, Seed: 2}.Probe(r, 1.0),
			rel.Gen{N: n, Seed: 3}.Probe(r, 1.0),
			rel.Gen{N: n / 4, Seed: 4}.Probe(r, 0.5),
		}}, "spill", func(pr *PipelineResult) bool { return pr.SpilledPartitions > 0 }},
		{spillShape{name: "resident", headroom: 4 << 20, rels: []rel.Relation{small,
			rel.Gen{N: 2 * n, Seed: 6}.Probe(small, 0.25),
			rel.Gen{N: n / 2, Seed: 7}.Probe(small, 1.0),
			rel.Gen{N: n / 8, Seed: 8}.Probe(small, 0.5),
		}}, "stay resident", func(pr *PipelineResult) bool { return pr.PeakIntermediateBytes > 256<<10 && pr.SpilledPartitions == 0 }},
		{spillShape{name: "streamed", headroom: 4 << 10, rels: skewed}, "stream",
			func(pr *PipelineResult) bool { return pr.IntermediateBytes > 4<<10 && pr.SpilledPartitions == 0 }},
	} {
		t.Run(tc.sh.name, func(t *testing.T) {
			svc := tc.sh.load(t, 1)
			// Two collections age every spare out of the recycler; its
			// ageing runs on the finalizer goroutine after each one.
			for range 3 {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			run := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if pr := tc.sh.run(t, svc); !tc.took(pr) {
					t.Fatalf("the pipeline did not %s", tc.path)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			first := run()
			warm := run()
			t.Logf("first run allocated %d B, a warm run %d B (ceiling %d B)", first, warm, ceiling)
			if warm > ceiling {
				t.Fatalf("a warm pipeline allocates %d B, above the ceiling of %d B: a split slab, a count table, a multiplicity slab or a hand-off buffer is not going back to the recycler", warm, ceiling)
			}
		})
	}
}

// TestSpillBoundaries pins the spiller's three escape hatches at their
// boundaries: a key owning exactly heavyKeyShare of the spilled build side
// streams it whole, the same key one tuple lighter repartitions (and its
// own partition streams one level down), and uniform data under a zero
// budget repartitions to maxSpillDepth and streams there.
func TestSpillBoundaries(t *testing.T) {
	r := rel.Gen{N: 1 << 11, Seed: 1}.Build()
	cases := []struct {
		name  string
		sh    spillShape
		parts int64
		depth int
		peak  int64
	}{
		{name: "heavy key at the share streams",
			sh:    spillShape{rels: skewedRels(1<<9, 1<<9), headroom: 4 << 10},
			parts: 0, depth: 0, peak: 48776},
		{name: "heavy key one below repartitions",
			sh:    spillShape{rels: skewedRels(1<<9-1, 1<<9), headroom: 4 << 10},
			parts: 4, depth: 1, peak: 50256},
		{name: "max depth streams",
			sh: spillShape{rels: []rel.Relation{r,
				rel.Gen{N: 1 << 11, Seed: 2}.Probe(r, 1.0),
				rel.Gen{N: 1 << 11, Seed: 3}.Probe(r, 1.0),
				rel.Gen{N: 1 << 9, Seed: 4}.Probe(r, 0.5),
			}},
			parts: 546, depth: 3, peak: 336},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := tc.sh.run(t, tc.sh.load(t, 2))
			if pr.SpilledPartitions != tc.parts || pr.SpillDepth != tc.depth || pr.PeakIntermediateBytes != tc.peak {
				t.Errorf("spilled %d partitions to depth %d with a peak of %d bytes, want %d, %d, %d",
					pr.SpilledPartitions, pr.SpillDepth, pr.PeakIntermediateBytes, tc.parts, tc.depth, tc.peak)
			}
			if want := oracle.PipelineCount(tc.sh.rels); pr.Final.Matches != want {
				t.Errorf("%d matches, the oracle counts %d", pr.Final.Matches, want)
			}
		})
	}
}

// TestSpillReadsAWiderTable: the spiller takes the spill point's count
// table, which may cover more than the relation it spills — a registered
// source's ingest table covers the whole relation a grid partition's chain
// starts from. Its heaviest key can then lie outside the spilled side, and
// must not make the spiller stream a side no key of which owns
// heavyKeyShare of it: spilled with the whole relation's table, a partition
// runs exactly as with its own.
func TestSpillReadsAWiderTable(t *testing.T) {
	whole := rel.Gen{N: 1 << 12, Seed: 21}.Build()
	for i := range 1 << 10 {
		whole.Keys[i] = whole.Keys[0]
	}
	parts := shard.Split(whole)
	cur := parts[(shard.PartitionOf(whole.Keys[0])+1)%shard.Partitions]
	wide := rel.KeyCounts(whole)
	defer wide.Release()
	if float64(wide.Max()) < heavyKeyShare*float64(cur.Len()) {
		t.Fatalf("the whole relation's heaviest key (%d tuples) is no heavier than half the partition's %d", wide.Max(), cur.Len())
	}
	probes := []rel.Relation{
		rel.Gen{N: 1 << 11, Seed: 22}.Probe(cur, 1.0),
		rel.Gen{N: 1 << 10, Seed: 23}.Probe(cur, 0.5),
	}
	opt := core.Options{Algo: core.PHJ, Scheme: core.DD, Delta: 0.1}
	spill := func(counts rel.Counts) *chain {
		c := &chain{ctx: context.Background(), cat: catalog.New(1 << 20), opt: &opt, budget: 2 << 10, level: 1}
		if err := c.run(cur, probes, []int{0, 1}, counts, nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	own := rel.KeyCounts(cur)
	defer own.Release()
	ref := spill(own)
	if len(ref.spills) == 0 {
		t.Fatal("the partition spilled nothing: the comparison shows nothing")
	}
	got := spill(wide)
	if !reflect.DeepEqual(got.steps, ref.steps) || !reflect.DeepEqual(got.spills, ref.spills) || got.depth != ref.depth || got.peak != ref.peak {
		t.Errorf("with the whole relation's table: %d spills to depth %d, peak %d; with its own: %d to depth %d, peak %d",
			len(got.spills), got.depth, got.peak, len(ref.spills), ref.depth, ref.peak)
	}
}

// TestSpillPlanLookups: a chain decides to spill from its build side's key
// counts before it plans or runs the step, and only a spill level's leader
// chain plans, so a spilled pipeline consults the plan cache once per step
// its leader runs — never for the whole-relation step the spiller takes
// over, never for a follower partition. A warm run then neither misses nor
// evicts at the default cache size, however deep the spill.
func TestSpillPlanLookups(t *testing.T) {
	want := map[string]int64{"depth 0": 3, "depth ≥ 1": 3, "streaming fallback": 0}
	for _, sh := range spillShapes() {
		svc := sh.load(t, 2)
		sh.run(t, svc)
		cold := planCounters(svc)
		if lookups := cold[0] + cold[1]; lookups != want[sh.name] {
			t.Errorf("%s: %d plan lookups, want %d", sh.name, lookups, want[sh.name])
		}
		sh.run(t, svc)
		if warm := planCounters(svc); warm[1] != cold[1] || warm[2] != cold[2] {
			t.Errorf("%s: a warm run missed %d plans and evicted %d, want none", sh.name, warm[1]-cold[1], warm[2]-cold[2])
		}
	}
}

// TestConcurrentSpillDeterminism: which chains spill depends on the data
// and the partition's budget share alone, never on what concurrent
// pipelines hold. Four copies of one pipeline run at once on a catalog
// whose headroom holds one of its intermediates but not two — unsharded and
// over four shards — and each must return exactly the solo run's result;
// afterwards every transient byte is back.
func TestConcurrentSpillDeterminism(t *testing.T) {
	sh := spillShapes()[0]
	sh.headroom = 96 << 10
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc := sh.loadOn(t, Config{Workers: 2, Shards: shards})
			solo := sh.run(t, svc)
			const rounds, lanes = 10, 4
			differ := 0
			for range rounds {
				results := make([]*PipelineResult, lanes)
				errs := make([]error, lanes)
				var wg sync.WaitGroup
				for i := range results {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[i], errs[i] = svc.RunPipeline(context.Background(), sh.spec(svc))
					}()
				}
				wg.Wait()
				for i, pr := range results {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if !reflect.DeepEqual(normalizeCacheHits(pr), solo) {
						differ++
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d concurrent runs differ from the solo run", differ, rounds*lanes)
			}
			if got := svc.Stats().Catalog.Bytes; got != sh.resident() {
				t.Errorf("%d catalog bytes after the runs, the relations occupy %d", got, sh.resident())
			}
		})
	}
}

// planCounters are a service's plan-cache counters.
func planCounters(svc *Service) [4]int64 {
	st := svc.Stats()
	return [4]int64{st.PlanHits, st.PlanMisses, st.PlanEvictions, int64(st.PlanEntries)}
}

// spillLevel is one partitioned spill level as spillLevelHook saw it.
type spillLevel struct {
	leader int
	plans  []*core.Plan
	steps  []*core.Result
}

// watchSpills records every spill level the test's pipelines partition
// and returns a function that takes the levels recorded so far. A level
// finishes after every level below it, so a run's top level comes last.
// The hook sees the level's own step Results, released once it returns, so
// it records deep copies.
func watchSpills(t *testing.T) func() []spillLevel {
	var mu sync.Mutex
	var levels []spillLevel
	spillLevelHook = func(leader int, plans []*core.Plan, steps []*core.Result) {
		kept := make([]*core.Result, len(steps))
		for i, r := range steps {
			c := *r
			c.Steps = slices.Clone(r.Steps)
			c.Ratios.Partition = slices.Clone(r.Ratios.Partition)
			c.BasicUnitShares = slices.Clone(r.BasicUnitShares)
			kept[i] = &c
		}
		mu.Lock()
		defer mu.Unlock()
		levels = append(levels, spillLevel{leader, slices.Clone(plans), kept})
	}
	t.Cleanup(func() { spillLevelHook = nil })
	return func() []spillLevel {
		mu.Lock()
		defer mu.Unlock()
		taken := levels
		levels = nil
		return taken
	}
}

// followersRanLeaders checks that every sub-join a follower ran under an
// inherited plan reports that plan's algorithm, scheme, probe profile and
// ratios, and returns how many it checked. A sub-join behind a nil entry of
// the plan table must have been planned alone: every plan's profiles
// include the partition pass its PHJ pilot takes, which the SHJ base
// options' own pilot never profiles; alone counts those. The leader's own
// steps, merged steps of a nested level and empty ones are not follower
// sub-joins.
func followersRanLeaders(t *testing.T, levels []spillLevel) (inherited, alone int) {
	t.Helper()
	for _, lv := range levels {
		k := len(lv.plans)
		for i, r := range lv.steps {
			if k == 0 || i/k == lv.leader || len(r.Ratios.Probe) == 0 {
				continue
			}
			pl := lv.plans[i%k]
			if pl == nil {
				if len(r.PartitionProfile.Steps) == 0 {
					t.Errorf("partition %d step %d ran %s-%s unplanned: its leader planned nothing for it, so it plans alone", i/k, i%k, r.Algo, r.Scheme)
				}
				alone++
				continue
			}
			ok := r.Algo == pl.Algo && r.Scheme == pl.Scheme && reflect.DeepEqual(r.ProbeProfile, pl.Probe) &&
				(pl.BuildRatios == nil || reflect.DeepEqual(r.Ratios.Build, pl.BuildRatios)) &&
				(pl.ProbeRatios == nil || reflect.DeepEqual(r.Ratios.Probe, pl.ProbeRatios))
			for _, pr := range r.Ratios.Partition {
				ok = ok && reflect.DeepEqual(pr, pl.PartitionRatios)
			}
			if !ok {
				t.Errorf("partition %d step %d ran %s-%s with ratios %v, its leader's plan is %s with %v / %v / %v",
					i/k, i%k, r.Algo, r.Scheme, r.Ratios, pl, pl.PartitionRatios, pl.BuildRatios, pl.ProbeRatios)
			}
			inherited++
		}
	}
	return inherited, alone
}

// TestSpillLeaderPlans: a spill level plans once. Its leader chain plans
// on the query's planner and every other chain runs the leader's plan for
// each step, at every nested level too. So the depth-0 and depth ≥ 1
// shapes, which spill at their first step, make exactly one plan lookup per
// remaining step, cold or warm, on one, two or four workers, at the default
// cache and at a two-entry one. Every follower sub-join reports its
// leader's ratios, and every run returns the same PipelineResult.
func TestSpillLeaderPlans(t *testing.T) {
	take := watchSpills(t)
	for _, sh := range spillShapes()[:2] {
		t.Run(sh.name, func(t *testing.T) {
			var want *PipelineResult
			for _, capacity := range []int{0, 2} {
				t.Run(fmt.Sprintf("cache=%d", capacity), func(t *testing.T) {
					for _, workers := range []int{1, 2, 4} {
						t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
							svc := sh.loadOn(t, Config{Workers: workers, PlanCache: capacity})
							for _, temp := range []string{"cold", "warm"} {
								before := planCounters(svc)
								pr := sh.exec(t, svc)
								after := planCounters(svc)
								if lookups := after[0] + after[1] - before[0] - before[1]; lookups != int64(len(pr.Steps)) {
									t.Errorf("%s: %d plan lookups, want one per remaining step: %d", temp, lookups, len(pr.Steps))
								}
								if n, _ := followersRanLeaders(t, take()); n == 0 {
									t.Errorf("%s: no follower sub-join ran an inherited plan", temp)
								}
								if want == nil {
									want = pr
								} else if !reflect.DeepEqual(pr, want) {
									t.Errorf("%s: the PipelineResult differs from the first run's", temp)
								}
							}
						})
					}
				})
			}
		})
	}
}

// leaderShape is a four-source pipeline r ⋈ s ⋈ u ⋈ v that spills at its
// first step into the eight partitions of level 0 and no further: in each
// partition r holds 300 keys, s each of them twice, u and v each once —
// 4 800 tuples per step, 38 400 bytes against 12 KB of headroom, 4 800
// bytes per partition. edit, when set, may replace partition p's s and u;
// other is 300 more keys of the partition, none of them in r.
func leaderShape(name string, edit func(p int, other, s, u []int32) ([]int32, []int32)) spillShape {
	var rk, sk, uk, vk []int32
	for p := range shard.Partitions {
		var keys, other []int32
		for k := int32(1); len(keys) < 300 || len(other) < 300; k++ {
			if shard.PartitionAt(k, 0) == p {
				if len(keys) < 300 {
					keys = append(keys, k)
				} else {
					other = append(other, k)
				}
			}
		}
		s, u := append(append([]int32(nil), keys...), keys...), keys
		if edit != nil {
			s, u = edit(p, other, s, u)
		}
		rk, sk, uk, vk = append(rk, keys...), append(sk, s...), append(uk, u...), append(vk, keys...)
	}
	rels := make([]rel.Relation, 4)
	for i, keys := range [][]int32{rk, sk, uk, vk} {
		rels[i] = rel.Relation{Keys: keys}
	}
	return spillShape{name: name, rels: rels, headroom: 12 << 10}
}

// leaderStreams is leaderShape with partition 0 dominated by one key: r
// carries it on 200 of the partition's 300 tuples and s carries ten more
// copies of it, so the leader's first intermediate overflows the budget and
// its nested level streams.
func leaderStreams() spillShape {
	sh := leaderShape("the leader streams", func(p int, other, s, u []int32) ([]int32, []int32) {
		if p == 0 {
			s = append(s, slices.Repeat(s[:1], 10)...)
		}
		return s, u
	})
	r := sh.rels[0].Keys // partition 0's 300 keys come first
	for i := 1; i < 200; i++ {
		r[i] = r[0]
	}
	return sh
}

// TestSpillLeaderFallback pins the leader rule where it has to choose.
// When partition 0's probe side is empty, the leader is the next
// partition. When the leader's intermediate empties before the last step
// (partition 0's u matches none of its keys), the leader plans nothing for
// that step and every follower plans it for itself, outside the cache.
// When the leader streams (its own spill one level down is dominated by
// one key), it plans nothing at all: the level's plan table stays empty and
// every follower plans each of its steps alone — the cost of a streaming
// leader, pinned here. In each the result is the same on one, two and four
// workers, and the query's plan cache serves the leader's lookups alone:
// one per step the leader planned, cold, and none on a warm run.
func TestSpillLeaderFallback(t *testing.T) {
	take := watchSpills(t)
	for _, tc := range []struct {
		sh                       spillShape
		leader, unplanned, depth int
	}{
		{leaderShape("partition 0 has an empty side", func(p int, other, s, u []int32) ([]int32, []int32) {
			if p == 0 {
				s = nil
			}
			return s, u
		}), 1, 0, 0},
		{leaderShape("the leader's intermediate empties", func(p int, other, s, u []int32) ([]int32, []int32) {
			if p == 0 {
				u = other
			}
			return s, u
		}), 0, 1, 0},
		{leaderStreams(), 0, 3, 1},
	} {
		t.Run(tc.sh.name, func(t *testing.T) {
			var want *PipelineResult
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					svc := tc.sh.load(t, workers)
					pr := tc.sh.exec(t, svc)
					if want := oracle.PipelineCount(tc.sh.rels); pr.Final.Matches != want {
						t.Fatalf("%d matches, the oracle counts %d", pr.Final.Matches, want)
					}
					levels := take()
					if len(levels) != 1 || pr.SpillDepth != tc.depth {
						t.Fatalf("%d spill levels to depth %d, want the first step to spill at level 0 alone, to depth %d", len(levels), pr.SpillDepth, tc.depth)
					}
					top := levels[0]
					planned := 0
					for _, pl := range top.plans {
						if pl != nil {
							planned++
						}
					}
					if top.leader != tc.leader || len(top.plans)-planned != tc.unplanned {
						t.Fatalf("leader %d left %d of %d steps unplanned, want leader %d and %d", top.leader, len(top.plans)-planned, len(top.plans), tc.leader, tc.unplanned)
					}
					cold := planCounters(svc)
					if cold[0]+cold[1] != int64(planned) {
						t.Errorf("%d plan lookups, the leader planned %d steps: a follower looked a plan up", cold[0]+cold[1], planned)
					}
					inherited, alone := followersRanLeaders(t, levels)
					if (inherited > 0) != (planned > 0) || (alone > 0) != (tc.unplanned > 0) {
						t.Errorf("%d follower sub-joins ran an inherited plan and %d planned alone; the leader planned %d steps and left %d", inherited, alone, planned, tc.unplanned)
					}
					tc.sh.exec(t, svc)
					take()
					if warm := planCounters(svc); warm[0]+warm[1] != cold[0]+cold[1]+int64(planned) {
						t.Errorf("a warm run made %d plan lookups, the leader planned %d steps", warm[0]+warm[1]-cold[0]-cold[1], planned)
					}
					if want == nil {
						want = pr
					} else if !reflect.DeepEqual(pr, want) {
						t.Errorf("the PipelineResult differs from the one-worker run's")
					}
				})
			}
		})
	}
}

// boundaryCtx is cancelled by the k-th call to Done — the k-th step
// boundary the engine checks — and counts the calls after it. The count
// and the close share one lock, so every call counted after the cancel
// sees it.
type boundaryCtx struct {
	context.Context
	mu          sync.Mutex
	left, after int
	done        chan struct{}
}

func cancelAtBoundary(k int) *boundaryCtx {
	return &boundaryCtx{Context: context.Background(), left: k, done: make(chan struct{})}
}

func (c *boundaryCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.left--; {
	case c.left == 0:
		close(c.done)
	case c.left < 0:
		c.after++
	}
	return c.done
}

func (c *boundaryCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// afterCancel is how many boundaries were checked after the cancel.
func (c *boundaryCtx) afterCancel() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.after
}

// TestSpillFanOutCancellation cancels the depth-0 spill at every step
// boundary in turn, on one, two and four workers. Each run must fail with
// the one cancellation error of its lowest failing partition, and no
// partition may start a step after the cancel: besides the chain that saw
// it, only chains already inside a step — at most one per other worker —
// may reach one more boundary. Every transient byte and every goroutine
// must be back afterwards, and once k passes the last boundary the run
// completes with the uncancelled result.
func TestSpillFanOutCancellation(t *testing.T) {
	sh := spillShapes()[0]
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc := sh.load(t, workers)
			want := sh.run(t, svc)
			goroutines := runtime.NumGoroutine()
			for k := 1; ; k++ {
				ctx := cancelAtBoundary(k)
				pr, err := svc.RunPipeline(ctx, sh.spec(svc))
				if got := svc.Stats().Catalog.Bytes; got != sh.resident() {
					t.Fatalf("k=%d: %d catalog bytes after the run, the relations occupy %d", k, got, sh.resident())
				}
				if err == nil {
					if k == 1 {
						t.Fatal("the pipeline checked no step boundary")
					}
					if !reflect.DeepEqual(normalizeCacheHits(pr), want) {
						t.Errorf("k=%d: the run past the last boundary differs from the uncancelled one", k)
					}
					break
				}
				if !errors.Is(err, context.Canceled) || strings.Count(err.Error(), context.Canceled.Error()) != 1 {
					t.Fatalf("k=%d: %v, want one cancellation error", k, err)
				}
				if n := ctx.afterCancel(); n > workers-1 {
					t.Fatalf("k=%d: %d step boundaries were checked after the cancel on %d workers: a partition started a step after it", k, n, workers)
				}
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the cancelled runs, %d before", n, goroutines)
			}
		})
	}
}
