package apujoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/shard"
)

// shardFixture registers the invariance corpus on eng: a generated build
// relation, two probe relations of different skew and selectivity, and a
// tiny bulk-loaded relation small enough that several of the fixed hash
// partitions are guaranteed empty.
func shardFixture(t *testing.T, eng *Engine) (tiny Relation) {
	t.Helper()
	if _, err := eng.Register("orders", Gen{N: 12000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterProbe("lineitem", "orders", Gen{N: 15000, Dist: HighSkew, Seed: 6}, 0.6); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterProbe("returns", "orders", Gen{N: 9000, Dist: LowSkew, Seed: 7}, 0.3); err != nil {
		t.Fatal(err)
	}
	tiny = Gen{N: 3, Seed: 11}.Build()
	if _, err := eng.Load("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	return tiny
}

// shardOutcome is everything one engine configuration reports for the
// fixed invariance workload: full Results and PipelineResults, simulated
// times included.
type shardOutcome struct {
	explicit *Result
	auto     *Result
	mixed    *Result
	tiny     *Result
	streamed *PipelineResult
	declared *PipelineResult
}

func runShardWorkload(t *testing.T, eng *Engine, tiny Relation) *shardOutcome {
	t.Helper()
	ctx := context.Background()
	opts := []JoinOption{WithDelta(0.1), WithPilotItems(1 << 10)}
	must := func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	o := &shardOutcome{}
	explicit := append(opts, WithAlgo(PHJ), WithScheme(PL))
	o.explicit = must(eng.Join(ctx, Ref("orders"), Ref("lineitem"), explicit...))
	o.auto = must(eng.Join(ctx, Ref("orders"), Ref("lineitem"), append(opts, WithAuto())...))
	// Build once, probe many: a repeat join probes the table the first one
	// left on the registered build side, an inline build side has none, and
	// all three report the same Result.
	orders := Gen{N: 12000, Seed: 5}.Build()
	for name, res := range map[string]*Result{
		"warm":     must(eng.Join(ctx, Ref("orders"), Ref("lineitem"), explicit...)),
		"uncached": must(eng.Join(ctx, Inline(orders), Ref("lineitem"), explicit...)),
	} {
		if !reflect.DeepEqual(res, o.explicit) {
			t.Errorf("%s explicit join differs from the cold one:\n %s %+v\n cold %+v", name, name, res, o.explicit)
		}
	}
	// A mixed Ref/Inline pair (allowed on every engine) and a join whose
	// tiny side leaves most hash partitions empty.
	o.mixed = must(eng.Join(ctx, Ref("orders"), Inline(Gen{N: 15000, Dist: HighSkew, Seed: 6}.
		Probe(Gen{N: 12000, Seed: 5}.Build(), 0.6)), opts...))
	o.tiny = must(eng.Join(ctx, Ref("tiny"), Inline(tiny), opts...))

	pr, err := eng.JoinPipeline(ctx, Pipeline{Sources: []Source{
		Ref("orders"), Ref("lineitem"), Ref("returns"),
	}}, append(opts, WithAuto())...)
	if err != nil {
		t.Fatal(err)
	}
	o.streamed = pr
	pr, err = eng.JoinPipeline(ctx, Pipeline{Sources: []Source{
		Ref("orders"), Ref("lineitem"), Ref("returns"),
	}, DeclaredOrder: true}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	o.declared = pr
	return o
}

// TestShardInvariance: every number a sharded engine reports — match
// counts, every simulated time, the pipeline peak-bytes accounting — is
// bit-identical for worker counts 1 and GOMAXPROCS. Full Results and
// PipelineResults are compared with DeepEqual; match counts are
// additionally grounded against an unsharded engine, which also runs as
// the shards=0 column for match counts only — they are
// decomposition-independent, while the simulated times of a grid of one
// legitimately differ from the grid of eight's, and only it may re-plan.
// Every shard count >= 1 is the same engine (one catalog, the fixed grid,
// Shards() == 1); the columns 1, 2 and 4 hold it to that, and
// TestClusterInvariance varies where the partitions live.
func TestShardInvariance(t *testing.T) {
	unsharded := NewEngine(Workers(2))
	defer unsharded.Close()
	tinyRel := shardFixture(t, unsharded)
	base := runShardWorkload(t, unsharded, tinyRel)

	var ref *shardOutcome
	var refCfg string
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, shards := range []int{0, 1, 2, 4} {
			cfg := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			t.Run(cfg, func(t *testing.T) {
				eng := NewEngine(Workers(workers), WithShards(shards))
				defer eng.Close()
				if got, want := eng.Shards(), min(shards, 1); got != want {
					t.Fatalf("Shards() = %d, want %d", got, want)
				}
				tiny := shardFixture(t, eng)
				o := runShardWorkload(t, eng, tiny)

				// Grounding: the sharded decomposition finds exactly the
				// matches the unsharded engine does.
				for name, pair := range map[string][2]int64{
					"explicit": {o.explicit.Matches, base.explicit.Matches},
					"auto":     {o.auto.Matches, base.auto.Matches},
					"mixed":    {o.mixed.Matches, base.mixed.Matches},
					"tiny":     {o.tiny.Matches, base.tiny.Matches},
					"streamed": {o.streamed.Final.Matches, base.streamed.Final.Matches},
					"declared": {o.declared.Final.Matches, base.declared.Final.Matches},
				} {
					if pair[0] != pair[1] {
						t.Errorf("%s: matches %d, unsharded %d", name, pair[0], pair[1])
					}
				}
				if o.explicit.Matches <= 0 || o.tiny.Matches != 3 {
					t.Errorf("workload degenerate: explicit %d matches, tiny %d (want 3)",
						o.explicit.Matches, o.tiny.Matches)
				}

				// Per-step plans must survive sharding: every step of the
				// auto streamed pipeline carries the aggregated PlanInfo,
				// exactly as on the unsharded engine.
				for i, st := range o.streamed.Steps {
					if st.Plan == nil || st.Plan.Algo == "" || st.Plan.Scheme == "" {
						t.Errorf("streamed auto step %d: missing per-step PlanInfo: %+v", i, st.Plan)
					}
				}

				if shards == 0 {
					return
				}
				if ref == nil {
					ref, refCfg = o, cfg
					return
				}
				for name, pair := range map[string][2]any{
					"explicit join Result":          {o.explicit, ref.explicit},
					"auto join Result":              {o.auto, ref.auto},
					"mixed-source join Result":      {o.mixed, ref.mixed},
					"empty-partition Result":        {o.tiny, ref.tiny},
					"streamed PipelineResult":       {o.streamed, ref.streamed},
					"declared-order PipelineResult": {o.declared, ref.declared},
				} {
					if !reflect.DeepEqual(pair[0], pair[1]) {
						t.Errorf("%s differs between %s and %s", name, cfg, refCfg)
					}
				}
			})
		}
	}
}

// TestShardSpillInvariance is the spill tentpole's acceptance gate: a
// pipeline whose selectivity-1 intermediates overflow the residency
// budget completes by spilling, matches the unconstrained run exactly, and the
// full PipelineResult (match counts, every simulated time, the spill
// accounting itself) is bit-identical for worker counts 1 and GOMAXPROCS
// and shard counts 1, 2 and 4, which all run one catalog under the same
// budget. An unsharded engine under the same budget (the shards=0 column)
// must spill too and find the same matches; its numbers are its own.
// TestClusterInvariance runs a spilling pipeline over 1, 2 and 4 servers.
func TestShardSpillInvariance(t *testing.T) {
	// The residency budget: each grid partition's share is total/8, the
	// quantity spill decisions and with them the simulated spill I/O
	// depend on. The 48 000 relation tuples leave ~13.6 KB headroom: too
	// little for any single partition's ~16 KB selectivity-1 intermediate.
	const totalBudget = 397_600
	rg := Gen{N: 16000, Seed: 1}
	sg := Gen{N: 16000, Seed: 2}
	ug := Gen{N: 16000, Seed: 3}
	register := func(t *testing.T, eng *Engine) {
		t.Helper()
		if _, err := eng.Register("r", rg); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RegisterProbe("s", "r", sg, 1.0); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RegisterProbe("u", "r", ug, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	sources := []Source{Ref("r"), Ref("s"), Ref("u")}
	opts := []JoinOption{WithDelta(0.25), WithPilotItems(1 << 8)}
	ctx := context.Background()

	unconstrained := NewEngine(Workers(2))
	defer unconstrained.Close()
	register(t, unconstrained)
	base, err := unconstrained.JoinPipeline(ctx, Pipeline{Sources: sources}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if base.SpilledPartitions != 0 || base.SpillBytes != 0 {
		t.Fatalf("unconstrained reference spilled: partitions=%d bytes=%d",
			base.SpilledPartitions, base.SpillBytes)
	}

	var ref *PipelineResult
	var refCfg string
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, shards := range []int{0, 1, 2, 4} {
			cfg := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			t.Run(cfg, func(t *testing.T) {
				eng := NewEngine(Workers(workers), WithShards(shards), CatalogCapacity(totalBudget))
				defer eng.Close()
				register(t, eng)

				res, err := eng.JoinPipeline(ctx, Pipeline{Sources: sources}, opts...)
				if err != nil {
					t.Fatalf("streamed run under budget: %v", err)
				}
				if res.Final.Matches != base.Final.Matches {
					t.Errorf("spilled matches %d, unconstrained %d",
						res.Final.Matches, base.Final.Matches)
				}
				if res.SpilledPartitions == 0 || res.SpillBytes == 0 || res.SpillNS == 0 {
					t.Errorf("constrained run reports no spill: partitions=%d bytes=%d ns=%v",
						res.SpilledPartitions, res.SpillBytes, res.SpillNS)
				}
				if shards == 0 {
					return
				}
				if ref == nil {
					ref, refCfg = res, cfg
					return
				}
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("spilled PipelineResult differs between %s and %s", cfg, refCfg)
				}
			})
		}
	}
}

// TestShardInvarianceStats: a sharded engine reports one catalog holding
// the whole budget, its resident bytes match the unsharded ingest, and
// every shard count >= 1 — above the fixed partition grid too — is the
// same engine, reporting Shards() == 1.
func TestShardInvarianceStats(t *testing.T) {
	eng := NewEngine(Workers(2), WithShards(3))
	defer eng.Close()
	shardFixture(t, eng)

	st := eng.svc.Stats()
	if st.Shards != 1 || st.Catalog.Capacity != catalog.DefaultCapacity {
		t.Fatalf("stats: shards=%d, capacity %d, want 1 and %d", st.Shards, st.Catalog.Capacity, catalog.DefaultCapacity)
	}
	if st.Catalog.Relations != 4 {
		t.Errorf("catalog relations = %d, want 4", st.Catalog.Relations)
	}
	// (12000 + 15000 + 9000 + 3) tuples × 8 bytes, wherever the split put them.
	if want := int64(12000+15000+9000+3) * 8; st.Catalog.Bytes != want {
		t.Errorf("resident bytes = %d, want %d", st.Catalog.Bytes, want)
	}

	over := NewEngine(Workers(1), WithShards(shard.Partitions*4))
	defer over.Close()
	if got := over.Shards(); got != 1 {
		t.Errorf("oversized shard count: Shards() = %d, want 1", got)
	}
}

// TestShardedEngineCloseNoGoroutineLeaks: closing a sharded engine with
// joins and pipelines just finished reclaims every goroutine the router
// fan-out started.
func TestShardedEngineCloseNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	eng := NewEngine(Workers(4), WithShards(4))
	tiny := shardFixture(t, eng)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = eng.Join(context.Background(), Ref("orders"), Ref("lineitem"),
				WithDelta(0.25), WithPilotItems(1<<8))
			_, _ = eng.JoinPipeline(context.Background(), Pipeline{Sources: []Source{
				Ref("orders"), Ref("lineitem"), Ref("returns"),
			}}, WithDelta(0.25), WithPilotItems(1<<8))
		}()
	}
	wg.Wait()
	_ = tiny
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after Close: %d, want <= %d", g, before)
	}
}

// TestShardedEngineSurface covers the sharded facade's documented edges:
// probes anchored on bulk-loaded relations reassemble the loaded base
// from its pinned partitions and register exactly as on an unsharded
// engine, JoinExternal refuses catalog references, and Drop unbinds
// across every shard.
func TestShardedEngineSurface(t *testing.T) {
	eng := NewEngine(Workers(2), WithShards(2))
	defer eng.Close()
	tiny := shardFixture(t, eng)

	// Probe-of-loaded: the router reassembles "tiny" in original tuple
	// order, so the registration — and the resulting join counts — match an
	// unsharded engine bit for bit.
	if _, err := eng.RegisterProbe("p", "tiny", Gen{N: 100, Seed: 1}, 1.0); err != nil {
		t.Errorf("probe of a bulk-loaded relation on a sharded engine: %v", err)
	} else {
		flat := NewEngine(Workers(2))
		defer flat.Close()
		if _, err := flat.Load("tiny", tiny); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.RegisterProbe("p", "tiny", Gen{N: 100, Seed: 1}, 1.0); err != nil {
			t.Fatal(err)
		}
		sharded, err := eng.Join(context.Background(), Ref("tiny"), Ref("p"), WithAlgo(SHJ), WithScheme(DD), WithDelta(0.25))
		if err != nil {
			t.Fatal(err)
		}
		unsharded, err := flat.Join(context.Background(), Ref("tiny"), Ref("p"), WithAlgo(SHJ), WithScheme(DD), WithDelta(0.25))
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Matches != unsharded.Matches {
			t.Errorf("probe-of-loaded join: sharded %d matches, unsharded %d", sharded.Matches, unsharded.Matches)
		}
	}
	// Probe-of-probe regenerates the whole chain.
	if _, err := eng.RegisterProbe("chained", "lineitem", Gen{N: 500, Seed: 9}, 0.5); err != nil {
		t.Errorf("probe of a probe: %v", err)
	}
	if _, err := eng.JoinExternal(context.Background(), Ref("orders"), Ref("lineitem")); err == nil {
		t.Error("JoinExternal accepted catalog references on a sharded engine, want error")
	}

	if err := eng.Drop("lineitem"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Join(context.Background(), Ref("orders"), Ref("lineitem")); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("join after sharded drop: err %v, want catalog.ErrNotFound", err)
	}
	if err := eng.Drop("lineitem"); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("double sharded drop: err %v, want catalog.ErrNotFound", err)
	}
}
