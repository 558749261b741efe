package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// TestRouterOneCatalog: a sharded service holds every partition in one
// catalog with the whole budget, so a relation whose keys all hash into one
// grid partition registers as long as the process has room — more than a
// quarter of the budget, which a four-way budget split refused — and the
// stats carry that one catalog and no per-shard gauges.
func TestRouterOneCatalog(t *testing.T) {
	const budget = 4096
	svc := New(Config{Workers: 1, Shards: 4, CatalogBytes: budget})
	defer svc.Close()
	st := svc.Stats()
	if st.Shards != 1 || st.Catalog.Capacity != budget {
		t.Fatalf("stats: shards %d, capacity %d, want 1 and %d", st.Shards, st.Catalog.Capacity, budget)
	}

	// 300 keys of partition 0: 2 400 bytes, between budget/4 and budget.
	var skew rel.Relation
	for k := int32(1); skew.Len() < 300; k++ {
		if shard.PartitionOf(k) == 0 {
			skew.Keys = append(skew.Keys, k)
		}
	}
	if b := skew.Bytes(); b <= budget/4 || b >= budget {
		t.Fatalf("fixture holds %d bytes, want between %d and %d", b, budget/4, budget)
	}
	if _, err := svc.LoadRelation("skew", skew); err != nil {
		t.Fatalf("a relation the process has room for: %v", err)
	}
	if got := svc.Stats().Catalog.Bytes; got != skew.Bytes() {
		t.Errorf("catalog bytes = %d, want %d", got, skew.Bytes())
	}

	raw, err := json.Marshal(svc.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	for key := range wire {
		if strings.HasPrefix(key, "shard") && key != "shards" {
			t.Errorf("stats carry per-shard gauges under %q: %s", key, raw)
		}
	}
	if c := wire["catalog"].(map[string]any); c["capacity_bytes"] != float64(budget) || wire["shards"] != float64(1) {
		t.Errorf("stats: catalog %v, shards %v, want capacity %d and 1", c, wire["shards"], budget)
	}
}

// TestRouterRegisterRollback: a registration the budget cannot hold fails
// with ErrNoSpace on the partition that overflows it and rolls back the
// partitions already loaded — no orphaned partial relation survives.
func TestRouterRegisterRollback(t *testing.T) {
	// 16 KB admits ~2000 tuples but not 4000: "huge" overflows it after its
	// first partitions are loaded.
	const budget = 16384
	svc := New(Config{Workers: 1, Shards: 2, CatalogBytes: budget})
	defer svc.Close()
	if _, err := svc.RegisterGen("small", rel.Gen{N: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats().Catalog
	if parts := shard.Split(rel.Gen{N: 4000, Seed: 2}.Build()); before.Bytes+parts[0].Bytes()+parts[1].Bytes() > budget {
		t.Fatalf("huge's first two partitions do not fit: nothing would roll back")
	}

	if _, err := svc.RegisterGen("huge", rel.Gen{N: 4000, Seed: 2}); !errors.Is(err, catalog.ErrNoSpace) {
		t.Fatalf("oversized sharded register: err %v, want catalog.ErrNoSpace", err)
	}
	after := svc.Stats().Catalog
	if after.Bytes != before.Bytes || after.Relations != before.Relations {
		t.Errorf("failed register leaked residency: %d bytes / %d relations, want %d / %d",
			after.Bytes, after.Relations, before.Bytes, before.Relations)
	}
	if _, ok := svc.RelationInfo("huge"); ok {
		t.Error("failed registration left the name bound")
	}
	// The name stays free for a fitting relation.
	if _, err := svc.RegisterGen("huge", rel.Gen{N: 50, Seed: 3}); err != nil {
		t.Errorf("re-register after rollback: %v", err)
	}
}

// TestRouterLifecycle: duplicate names, drop semantics and the router's
// registered/dropped counters across the sharded catalog surface.
func TestRouterLifecycle(t *testing.T) {
	svc := New(Config{Workers: 2, Shards: 3})
	defer svc.Close()

	if _, err := svc.RegisterGen("r", rel.Gen{N: 5000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterGen("r", rel.Gen{N: 10, Seed: 2}); !errors.Is(err, catalog.ErrExists) {
		t.Errorf("duplicate register: err %v, want catalog.ErrExists", err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 6000, Seed: 2}, 0.8); err != nil {
		t.Fatal(err)
	}
	infos := svc.Relations()
	if len(infos) != 2 || infos[0].Name != "r" || infos[1].Name != "s" {
		t.Fatalf("relations = %+v, want sorted [r s]", infos)
	}
	if info, ok := svc.RelationInfo("s"); !ok || info.ProbeOf != "r" || info.Selectivity != 0.8 || info.Tuples != 6000 {
		t.Errorf("probe info = %+v, ok=%v", info, ok)
	}

	if _, err := svc.DropRelation("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DropRelation("s"); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("double drop: err %v, want catalog.ErrNotFound", err)
	}
	if _, err := svc.RegisterProbe("p", "missing", rel.Gen{N: 10, Seed: 4}, 1.0); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("probe of missing base: err %v, want catalog.ErrNotFound", err)
	}

	st := svc.Stats().Catalog
	if st.Registered != 2 || st.Dropped != 1 || st.Relations != 1 {
		t.Errorf("counters: registered=%d dropped=%d relations=%d, want 2/1/1",
			st.Registered, st.Dropped, st.Relations)
	}
}

// TestRouterProbeChainRegeneration: a probe-of-probe chain on the sharded
// service joins to exactly the counts of the same chain generated
// directly — the router regenerated each build side in original tuple
// order, not from its partition split.
func TestRouterProbeChainRegeneration(t *testing.T) {
	svc := New(Config{Workers: 2, Shards: 2})
	defer svc.Close()

	rg := rel.Gen{N: 4000, Seed: 1}
	sg := rel.Gen{N: 5000, Dist: rel.HighSkew, Seed: 2}
	tg := rel.Gen{N: 3000, Seed: 3}
	if _, err := svc.RegisterGen("r", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", sg, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("u", "s", tg, 0.5); err != nil {
		t.Fatal(err)
	}

	r := rg.Build()
	s := sg.Probe(r, 0.7)
	u := tg.Probe(s, 0.5)
	opt := core.Options{Delta: 0.25, PilotItems: 1 << 8}
	for _, pair := range []struct {
		rn, sn string
		want   int64
	}{
		{"r", "s", oracle.JoinCount(r, s)},
		{"s", "u", oracle.JoinCount(s, u)},
	} {
		res, err := svc.RunJoin(context.Background(), JoinSpec{RName: pair.rn, SName: pair.sn, Opt: opt})
		if err != nil {
			t.Fatalf("%s ⋈ %s: %v", pair.rn, pair.sn, err)
		}
		if res.Matches != pair.want {
			t.Errorf("%s ⋈ %s: matches %d, oracle %d", pair.rn, pair.sn, res.Matches, pair.want)
		}
	}

	// A probe anchored on a bulk load reassembles the loaded base from its
	// pinned partitions in original tuple order (the router records each
	// tuple's partition at registration), so registration succeeds and the
	// joins match the directly generated chain.
	if _, err := svc.LoadRelation("bulk", rg.Build()); err != nil {
		t.Fatal(err)
	}
	qg := rel.Gen{N: 3500, Dist: rel.HighSkew, Seed: 9}
	if _, err := svc.RegisterProbe("q", "bulk", qg, 0.6); err != nil {
		t.Fatalf("probe of a bulk-loaded relation: %v", err)
	}
	q := qg.Probe(rg.Build(), 0.6)
	res, err := svc.RunJoin(context.Background(), JoinSpec{RName: "bulk", SName: "q", Opt: opt})
	if err != nil {
		t.Fatalf("bulk ⋈ q: %v", err)
	}
	if want := oracle.JoinCount(rg.Build(), q); res.Matches != want {
		t.Errorf("bulk ⋈ q: matches %d, oracle %d", res.Matches, want)
	}
	// A probe chained on a loaded anchor through another probe regenerates
	// too: the chain walk bottoms out at the reassembled load.
	if _, err := svc.RegisterProbe("q2", "q", rel.Gen{N: 1500, Seed: 10}, 0.8); err != nil {
		t.Fatalf("probe of probe-of-loaded: %v", err)
	}
}

// TestRouterShardedJoinPaths: RunJoin's sharded resolution accepts named,
// inline and mixed source pairs — splitting inline sides on the spot —
// and surfaces catalog errors from any partition.
func TestRouterShardedJoinPaths(t *testing.T) {
	svc := New(Config{Workers: 2, Shards: 2})
	defer svc.Close()
	if !svc.ShardServer() || svc.Shards() != 1 {
		t.Fatalf("ShardServer()=%v Shards()=%d, want true/1", svc.ShardServer(), svc.Shards())
	}
	if svc.Pool() == nil {
		t.Fatal("resident pool missing")
	}

	rg := rel.Gen{N: 3000, Seed: 1}
	sg := rel.Gen{N: 3000, Seed: 2}
	r := rg.Build()
	s := sg.Probe(r, 0.9)
	want := oracle.JoinCount(r, s)
	if _, err := svc.RegisterGen("r", rg); err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Delta: 0.25, PilotItems: 1 << 8}
	for name, spec := range map[string]JoinSpec{
		"inline": {R: r, S: s, Opt: opt},
		"mixed":  {RName: "r", S: s, Opt: opt},
		"auto":   {RName: "r", S: s, Opt: opt, Auto: true},
	} {
		res, err := svc.RunJoin(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Matches != want {
			t.Errorf("%s: matches %d, oracle %d", name, res.Matches, want)
		}
	}
	if _, err := svc.RunJoin(context.Background(), JoinSpec{RName: "r", SName: "missing", Opt: opt}); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("unknown probe name: err %v, want catalog.ErrNotFound", err)
	}
}

// TestGeneratorSpecsMaterialize: a generator spec is the inline relations
// it describes. RunJoin, RunPipeline and RunExternal report exactly what
// the materialized relations report, unsharded and sharded — RunExternal in
// particular never joins the spec's empty R and S.
func TestGeneratorSpecsMaterialize(t *testing.T) {
	ctx := context.Background()
	jg := &JoinGen{R: 3000, S: 4000, Dist: rel.LowSkew, Seed: 5, Sel: 0.6}
	r, s := jg.relations()
	gens := []rel.Gen{{N: 500, KeyRange: 500, Seed: 7}, {N: 600, KeyRange: 500, Seed: 8}, {N: 400, KeyRange: 500, Seed: 9}}
	var genSrcs, relSrcs []PipelineSource
	for i := range gens {
		genSrcs = append(genSrcs, PipelineSource{Gen: &gens[i]})
		relSrcs = append(relSrcs, PipelineSource{Rel: gens[i].Build()})
	}
	opt := core.Options{Delta: 0.25, PilotItems: 1 << 8}
	for _, shards := range []int{0, 4} {
		svc := New(Config{Workers: 2, Shards: shards})
		defer svc.Close()

		got, err := svc.RunJoin(ctx, JoinSpec{Gen: jg, Opt: opt})
		if err != nil {
			t.Fatalf("shards=%d: generated join: %v", shards, err)
		}
		want, err := svc.RunJoin(ctx, JoinSpec{R: r, S: s, Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || got.Matches != oracle.JoinCount(r, s) {
			t.Errorf("shards=%d: generated join %+v != inline join %+v (oracle %d)", shards, got, want, oracle.JoinCount(r, s))
		}

		gotExt, err := svc.RunExternal(ctx, JoinSpec{Gen: jg, Opt: opt})
		if err != nil {
			t.Fatalf("shards=%d: generated external join: %v", shards, err)
		}
		wantExt, err := svc.RunExternal(ctx, JoinSpec{R: r, S: s, Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotExt, wantExt) || gotExt.Matches != want.Matches {
			t.Errorf("shards=%d: generated external join %+v != inline %+v", shards, gotExt, wantExt)
		}

		gotPipe, err := svc.RunPipeline(ctx, PipelineSpec{Sources: genSrcs, Opt: opt})
		if err != nil {
			t.Fatalf("shards=%d: generated pipeline: %v", shards, err)
		}
		wantPipe, err := svc.RunPipeline(ctx, PipelineSpec{Sources: relSrcs, Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPipe, wantPipe) || gotPipe.Final.Matches == 0 {
			t.Errorf("shards=%d: generated pipeline %+v != inline %+v", shards, gotPipe, wantPipe)
		}
	}
}

// TestInlineSplitSlabsGoBack: an inline join on a sharded service splits
// both sides over the grid into recycler slabs that go back with the
// query's pins, so once the recycler is warm a join allocates less than
// one copy of its inputs (1 MB here), the columns the split used to make
// on every query: 0.2 MB alone, up to 0.7 MB with other tests' goroutines
// allocating beside it, and a lost release adds the whole megabyte. The
// collector is off for the duration so that no slab is freed in between.
func TestInlineSplitSlabsGoBack(t *testing.T) {
	const n = 1 << 16
	svc := New(Config{Workers: 2, Shards: 2})
	defer svc.Close()
	r := rel.Gen{N: n, Seed: 1}.Build()
	spec := JoinSpec{R: r, S: rel.Gen{N: n, Seed: 2}.Probe(r, 1.0), Opt: core.Options{Delta: 0.25, PilotItems: 1 << 8}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := svc.RunJoin(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	warm, ceiling := run(), uint64(2*n*8)
	t.Logf("a warm inline join allocated %d B (ceiling %d B)", warm, ceiling)
	if warm > ceiling {
		t.Fatalf("a warm inline 2^16 × 2^16 join on a sharded service allocates %d B, above the ceiling of %d B: the split's slabs are not going back with the pins", warm, ceiling)
	}
}

// TestRouterShardedPipeline: the sharded pipeline path — global order,
// per-partition chains, deterministic per-step merge — matches the
// multi-way oracle on cost-ordered and declared-order runs, and tiny
// relations whose hash partitions are mostly empty still chain correctly.
func TestRouterShardedPipeline(t *testing.T) {
	svc := New(Config{Workers: 2, Shards: 3})
	defer svc.Close()

	rg := rel.Gen{N: 3000, Seed: 1}
	sg := rel.Gen{N: 4000, Dist: rel.HighSkew, Seed: 2}
	ug := rel.Gen{N: 2500, Seed: 3}
	if _, err := svc.RegisterGen("r", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", sg, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("u", "r", ug, 0.4); err != nil {
		t.Fatal(err)
	}
	r := rg.Build()
	s := sg.Probe(r, 0.7)
	u := ug.Probe(r, 0.4)
	want := oracle.PipelineCount([]rel.Relation{r, s, u})

	opt := core.Options{Delta: 0.25, PilotItems: 1 << 8}
	named := []PipelineSource{{Name: "r"}, {Name: "s"}, {Name: "u"}}
	streamed, err := svc.RunPipeline(context.Background(), PipelineSpec{Sources: named, Opt: opt, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Final.Matches != want {
		t.Errorf("streamed: matches %d, oracle %d", streamed.Final.Matches, want)
	}
	if !streamed.Ordered || streamed.PeakIntermediateBytes <= 0 {
		t.Errorf("streamed run: Ordered=%v peak=%d", streamed.Ordered, streamed.PeakIntermediateBytes)
	}

	// Inline sources run in declaration order; tiny relations leave most
	// of the 8 hash partitions empty on at least one side.
	tinyR := rel.Gen{N: 6, Seed: 9}.Build()
	tinyS := rel.Gen{N: 8, Seed: 10}.Probe(tinyR, 1.0)
	tinyU := rel.Gen{N: 5, Seed: 11}.Probe(tinyR, 1.0)
	tiny, err := svc.RunPipeline(context.Background(), PipelineSpec{
		Sources:       []PipelineSource{{Rel: tinyR}, {Rel: tinyS}, {Rel: tinyU}},
		Opt:           opt,
		DeclaredOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tw := oracle.PipelineCount([]rel.Relation{tinyR, tinyS, tinyU}); tiny.Final.Matches != tw {
		t.Errorf("tiny sharded pipeline: matches %d, oracle %d", tiny.Final.Matches, tw)
	}

	// Error surface: too few sources, unknown names.
	if _, err := svc.RunPipeline(context.Background(), PipelineSpec{Sources: named[:1], Opt: opt}); !errors.Is(err, ErrPipelineTooShort) {
		t.Errorf("one source: err %v, want ErrPipelineTooShort", err)
	}
	if _, err := svc.RunPipeline(context.Background(), PipelineSpec{
		Sources: []PipelineSource{{Name: "r"}, {Name: "nope"}}, Opt: opt,
	}); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("unknown source: err %v, want catalog.ErrNotFound", err)
	}
}

// TestRouterShardedPipelineBudget: a sharded pipeline whose intermediate
// overflows a shard's budget spills — completing with the unconstrained
// matches and reporting the spill — and restores every shard's residency
// gauge.
func TestRouterShardedPipelineBudget(t *testing.T) {
	rg := rel.Gen{N: 2000, Seed: 1}
	sg := rel.Gen{N: 2000, Seed: 2}
	ug := rel.Gen{N: 2000, Seed: 3}
	// Sources fit (ingest splits ~6000 tuples over 2 shards), but each
	// selectivity-1 intermediate (~2000 tuples in one chain) cannot.
	svc := New(Config{Workers: 2, Shards: 2, CatalogBytes: 2 * 26_000})
	defer svc.Close()
	if _, err := svc.RegisterGen("r", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", sg, 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("u", "r", ug, 1.0); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats().Catalog.Bytes

	// The unconstrained reference for the same chain.
	r := rg.Build()
	s := sg.Probe(r, 1.0)
	u := ug.Probe(r, 1.0)
	want := oracle.PipelineCount([]rel.Relation{r, s, u})

	named := []PipelineSource{{Name: "r"}, {Name: "s"}, {Name: "u"}}
	opt := core.Options{Delta: 0.25, PilotItems: 1 << 8}
	res, err := svc.RunPipeline(context.Background(), PipelineSpec{
		Sources: named, Opt: opt, DeclaredOrder: true,
	})
	if err != nil {
		t.Fatalf("streamed pipeline under budget pressure: %v", err)
	}
	if res.Final.Matches != want {
		t.Errorf("spilled pipeline: matches %d, oracle %d", res.Final.Matches, want)
	}
	if res.SpilledPartitions == 0 || res.SpillBytes == 0 || res.SpillNS == 0 {
		t.Errorf("overflowing streamed pipeline reports no spill: partitions=%d bytes=%d ns=%v",
			res.SpilledPartitions, res.SpillBytes, res.SpillNS)
	}

	if after := svc.Stats().Catalog.Bytes; after != before {
		t.Errorf("pipeline leaked residency: %d bytes, want %d", after, before)
	}
}

// TestRouterProbeOfLoadedRollback: a probe registration anchored on a
// bulk-loaded relation that overflows the shard budgets fails whole —
// every shard's residency gauge restored, the name unbound — and the
// same name registers cleanly afterwards at a size that fits.
func TestRouterProbeOfLoadedRollback(t *testing.T) {
	rg := rel.Gen{N: 2000, Seed: 1}
	// 2000 loaded tuples split over 2 shards ≈ 8000 bytes per shard; a
	// 6000-tuple probe (~24000 bytes per shard) cannot fit a 12_000-byte
	// shard budget, while a 500-tuple probe can.
	svc := New(Config{Workers: 2, Shards: 2, CatalogBytes: 2 * 12_000})
	defer svc.Close()
	if _, err := svc.LoadRelation("bulk", rg.Build()); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats().Catalog.Bytes

	if _, err := svc.RegisterProbe("p", "bulk", rel.Gen{N: 6000, Seed: 2}, 1.0); !errors.Is(err, catalog.ErrNoSpace) {
		t.Fatalf("oversized probe of loaded: err %v, want catalog.ErrNoSpace", err)
	}
	if after := svc.Stats().Catalog.Bytes; after != before {
		t.Errorf("failed probe registration leaked residency: %d bytes, want %d", after, before)
	}
	if _, ok := svc.RelationInfo("p"); ok {
		t.Error("failed probe registration left the name bound")
	}

	// The reassembly pins released: the same name registers at a size that
	// fits and joins to the oracle count.
	if _, err := svc.RegisterProbe("p", "bulk", rel.Gen{N: 500, Seed: 2}, 1.0); err != nil {
		t.Fatalf("re-register after rollback: %v", err)
	}
	p := rel.Gen{N: 500, Seed: 2}.Probe(rg.Build(), 1.0)
	res, err := svc.RunJoin(context.Background(), JoinSpec{RName: "bulk", SName: "p",
		Opt: core.Options{Delta: 0.25, PilotItems: 1 << 8}})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.JoinCount(rg.Build(), p); res.Matches != want {
		t.Errorf("bulk ⋈ p after rollback: matches %d, oracle %d", res.Matches, want)
	}
}

// TestRouterWorkloadMemoization: repeated auto joins of the same named
// pair reuse the memoized ingest-time workload (the reuse counter climbs)
// and dropping either side invalidates the memo without breaking later
// queries.
func TestRouterWorkloadMemoization(t *testing.T) {
	svc := New(Config{Workers: 2, Shards: 2})
	defer svc.Close()
	if _, err := svc.RegisterGen("r", rel.Gen{N: 8000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 8000, Seed: 2}, 1.0); err != nil {
		t.Fatal(err)
	}
	spec := JoinSpec{RName: "r", SName: "s", Opt: core.Options{Delta: 0.25, PilotItems: 1 << 8}, Auto: true}
	for i := 0; i < 3; i++ {
		if _, err := svc.RunJoin(context.Background(), spec); err != nil {
			t.Fatalf("auto join %d: %v", i, err)
		}
	}
	if reuses := svc.Stats().Catalog.WorkloadReuses; reuses < 2 {
		t.Errorf("workload reuses = %d after 3 identical auto joins, want >= 2", reuses)
	}

	if _, err := svc.DropRelation("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 400, Seed: 7}, 0.2); err != nil {
		t.Fatal(err)
	}
	res, err := svc.RunJoin(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.JoinCount(rel.Gen{N: 8000, Seed: 1}.Build(),
		rel.Gen{N: 400, Seed: 7}.Probe(rel.Gen{N: 8000, Seed: 1}.Build(), 0.2))
	if res.Matches != want {
		t.Errorf("join after drop+re-register: matches %d, oracle %d (stale workload memo?)", res.Matches, want)
	}
}

// TestPinsCountQueriesNotPartitions: a query pins every partition entry of
// the relations it references, and /v1/relations documents pins as in-flight
// queries — one query is one pin for any shard count (a sharded server used
// to report the eight partition pins), in the listing and in the drop reply.
func TestPinsCountQueriesNotPartitions(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		svc := New(Config{Workers: 1, Shards: shards})
		if _, err := svc.RegisterGen("r", rel.Gen{N: 4000, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// A resolved join is a query held open: its pins last until release.
		open, err := svc.router.resolveJoin(JoinSpec{RName: "r", S: rel.Gen{N: 100, Seed: 2}.Build()})
		if err != nil {
			t.Fatal(err)
		}
		if info, _ := svc.RelationInfo("r"); info.Pins != 1 {
			t.Errorf("shards=%d: one open query shows pins = %d, want 1", shards, info.Pins)
		}
		if info, err := svc.DropRelation("r"); err != nil || info.Pins != 1 {
			t.Errorf("shards=%d: drop reply pins = %d (err %v), want the 1 query still open", shards, info.Pins, err)
		}
		open.release()
		if b := svc.Stats().Catalog.Bytes; b != 0 {
			t.Errorf("shards=%d: %d bytes resident after the last pin drained", shards, b)
		}
		svc.Close()
	}
}

// TestUnshardedRegistrationKeepsTheRelationWhole: an unsharded service's one
// partition is the relation itself. Load retains the caller's columns — the
// whole-relation resolve hands the very same backing arrays back — and a
// probe registered against a loaded build side is generated from that
// resident slice, equal to inline g.Probe(build, sel) tuple for tuple.
func TestUnshardedRegistrationKeepsTheRelationWhole(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	in := rel.Gen{N: 3000, Seed: 1}.Build()
	if _, err := svc.LoadRelation("in", in); err != nil {
		t.Fatal(err)
	}
	pg := rel.Gen{N: 2500, Dist: rel.HighSkew, Seed: 2}
	if _, err := svc.RegisterProbe("p", "in", pg, 0.6); err != nil {
		t.Fatal(err)
	}
	whole, probe, _, pins, err := svc.router.whole(JoinSpec{RName: "in", SName: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer releaseAll(pins)
	if &whole.Keys[0] != &in.Keys[0] {
		t.Error("Load copied the relation: the resident key column is not the caller's")
	}
	want := pg.Probe(in, 0.6)
	if len(probe.Keys) != len(want.Keys) {
		t.Fatalf("probe of loaded: %d tuples, inline generation %d", len(probe.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if probe.Keys[i] != want.Keys[i] {
			t.Fatalf("probe of loaded: tuple %d differs from inline generation", i)
		}
	}
	// Only a grid of one holds relations whole.
	sharded := New(Config{Workers: 1, Shards: 1})
	defer sharded.Close()
	if _, err := sharded.LoadRelation("in", in); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := sharded.router.whole(JoinSpec{RName: "in", SName: "in"}); err == nil {
		t.Error("a sharded service resolved a reference to a whole relation")
	}
}
