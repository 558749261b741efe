package apujoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/service"
)

// pipelineFixture registers the three-relation workload the pipeline tests
// share: a build side, a wide selectivity-1 probe and a narrow selective
// probe, so the cost-based orderer has a real choice to make.
func pipelineFixture(t *testing.T, eng *Engine) (rels []Relation) {
	t.Helper()
	specs := []struct {
		name string
		of   string
		gen  Gen
		sel  float64
	}{
		{name: "orders", gen: Gen{N: 30000, Seed: 11}},
		{name: "lineitem", of: "orders", gen: Gen{N: 40000, Dist: LowSkew, Seed: 12}, sel: 1.0},
		{name: "returns", of: "orders", gen: Gen{N: 20000, Seed: 13}, sel: 0.2},
	}
	for _, sp := range specs {
		var err error
		if sp.of == "" {
			_, err = eng.Register(sp.name, sp.gen)
		} else {
			_, err = eng.RegisterProbe(sp.name, sp.of, sp.gen, sp.sel)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	build := specs[0].gen.Build()
	return []Relation{
		build,
		specs[1].gen.Probe(build, specs[1].sel),
		specs[2].gen.Probe(build, specs[2].sel),
	}
}

var pipelineTestOpts = []JoinOption{WithDelta(0.1), WithPilotItems(1 << 10)}

// handRunChain executes a pipeline's chain by hand in the given order: one
// stand-alone Join per step, each intermediate built with
// rel.JoinMaterialize. It returns every step's Result and every
// intermediate — the reference the pipeline executor is held to.
func handRunChain(t *testing.T, eng *Engine, rels []Relation, order []int, opts []JoinOption) (steps []*Result, inters []Relation) {
	t.Helper()
	cur := rels[order[0]]
	for i := 1; i < len(order); i++ {
		probe := rels[order[i]]
		res, err := eng.Join(context.Background(), Inline(cur), Inline(probe), opts...)
		if err != nil {
			t.Fatalf("hand-run step %d: %v", i, err)
		}
		steps = append(steps, res)
		if i < len(order)-1 {
			cur = rel.JoinMaterialize(cur, probe)
			inters = append(inters, cur)
		}
	}
	return steps, inters
}

// TestPipelineMatchesManualChain is the PR's acceptance contract: a
// 3-relation pipeline's final Result is bit-identical to manually chaining
// pairwise Join calls in the chosen order — with the intermediates built
// by hand — for worker counts 1 and GOMAXPROCS, under both an
// explicit configuration and the auto planner; and the final match count
// equals the brute-force multi-way oracle.
func TestPipelineMatchesManualChain(t *testing.T) {
	modes := []struct {
		name string
		opts []JoinOption
	}{
		{"explicit PHJ-DD", append([]JoinOption{WithAlgo(PHJ), WithScheme(DD)}, pipelineTestOpts...)},
		{"auto", append([]JoinOption{WithAuto()}, pipelineTestOpts...)},
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		eng := NewEngine(Workers(workers))
		defer eng.Close()
		rels := pipelineFixture(t, eng)
		want := oracle.PipelineCount(rels)
		ctx := context.Background()
		for _, m := range modes {
			t.Run(m.name, func(t *testing.T) {
				pr, err := eng.JoinPipeline(ctx, Pipeline{Sources: []Source{
					Ref("orders"), Ref("lineitem"), Ref("returns"),
				}}, m.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if pr.Final.Matches != want {
					t.Errorf("workers=%d: pipeline matches %d, want oracle %d", workers, pr.Final.Matches, want)
				}
				if !pr.Ordered {
					t.Error("all-catalog pipeline was not cost-ordered")
				}
				// The wide selectivity-1 join (orders ⋈ lineitem) must not
				// run first: any other pair estimates a smaller intermediate.
				if pr.Order[0] == 0 && pr.Order[1] == 1 {
					t.Errorf("orderer kept the worst-first declaration prefix: %v", pr.Order)
				}
				if len(pr.Steps) != 2 || pr.Steps[len(pr.Steps)-1].Result != pr.Final {
					t.Fatalf("steps = %d, final not last step's result", len(pr.Steps))
				}

				// Manual chain in the chosen order, same options per step.
				steps, inters := handRunChain(t, eng, rels, pr.Order, m.opts)
				if !reflect.DeepEqual(pr.Final, steps[len(steps)-1]) {
					t.Errorf("workers=%d: pipeline final Result differs from the manual chain", workers)
				}
				// Per-step results match the manual chain's counts too.
				if pr.Steps[0].OutTuples != int64(inters[0].Len()) {
					t.Errorf("step 0 out tuples %d disagree with the hand-built intermediate", pr.Steps[0].OutTuples)
				}
			})
		}
	}
}

// TestPipelineWorkersInvariance mirrors core.TestWorkersInvariance at the
// pipeline level: the entire PipelineResult — order, every step's Result,
// every simulated number — is bit-identical between a 1-worker and a
// GOMAXPROCS engine.
func TestPipelineWorkersInvariance(t *testing.T) {
	results := make([]*PipelineResult, 0, 2)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		eng := NewEngine(Workers(workers))
		pipelineFixture(t, eng)
		pr, err := eng.JoinPipeline(context.Background(), Pipeline{Sources: []Source{
			Ref("orders"), Ref("lineitem"), Ref("returns"),
		}}, append([]JoinOption{WithAuto()}, pipelineTestOpts...)...)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, pr)
		eng.Close()
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("PipelineResult differs between 1 worker and GOMAXPROCS")
	}
}

// TestPipelineStreamedMatchesHandRunChain is the streamed hand-off's
// acceptance contract: for worker counts 1 and GOMAXPROCS, explicit and
// auto, a pipeline is bit-identical — every step's Result, Final, TotalNS,
// the intermediate totals — to the chain run by hand in the same order,
// while its peak resident footprint is exactly the largest single
// intermediate: at most one is ever resident, and nothing but its relation
// bytes is charged. Each run uses a fresh engine so the pipeline plans
// against a cold cache.
func TestPipelineStreamedMatchesHandRunChain(t *testing.T) {
	modes := map[string][]JoinOption{
		"explicit PHJ-DD": append([]JoinOption{WithAlgo(PHJ), WithScheme(DD)}, pipelineTestOpts...),
		"auto":            append([]JoinOption{WithAuto()}, pipelineTestOpts...),
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for name, opts := range modes {
			eng := NewEngine(Workers(workers))
			rels := pipelineFixture(t, eng)
			pr, err := eng.JoinPipeline(context.Background(), Pipeline{
				Sources: []Source{Ref("orders"), Ref("lineitem"), Ref("returns")},
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			steps, inters := handRunChain(t, eng, rels, pr.Order, opts)
			eng.Close()

			var totalNS float64
			var interTuples, interBytes, peak int64
			for i, want := range steps {
				if !reflect.DeepEqual(pr.Steps[i].Result, want) {
					t.Errorf("workers=%d %s step %d: Result differs from the hand-run Join", workers, name, i)
				}
				totalNS += want.TotalNS
			}
			for _, in := range inters {
				interTuples += int64(in.Len())
				interBytes += in.Bytes()
				if in.Bytes() > peak {
					peak = in.Bytes()
				}
			}
			if !reflect.DeepEqual(pr.Final, steps[len(steps)-1]) {
				t.Errorf("workers=%d %s: Final differs from the hand-run chain", workers, name)
			}
			if pr.TotalNS != totalNS {
				t.Errorf("workers=%d %s: TotalNS %.0f != hand-run %.0f", workers, name, pr.TotalNS, totalNS)
			}
			if pr.IntermediateTuples != interTuples || pr.IntermediateBytes != interBytes {
				t.Errorf("workers=%d %s: intermediate totals %d/%d, hand-run %d/%d", workers, name,
					pr.IntermediateTuples, pr.IntermediateBytes, interTuples, interBytes)
			}
			if pr.PeakIntermediateBytes != peak || peak != maxIntermediateBytes(pr) || peak <= 0 {
				t.Errorf("workers=%d %s: peak %d, want the largest single intermediate %d (8 x matches: %d) > 0",
					workers, name, pr.PeakIntermediateBytes, peak, maxIntermediateBytes(pr))
			}
		}
	}
}

// TestPipelineColdWarmPlanCacheInvariance: an auto pipeline is bit-identical
// whether its steps plan against a cold or a warm plan cache — the second
// run hits the cache (observably) and changes nothing else.
func TestPipelineColdWarmPlanCacheInvariance(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	pipelineFixture(t, eng)
	opts := append([]JoinOption{WithAuto()}, pipelineTestOpts...)
	p := Pipeline{Sources: []Source{Ref("orders"), Ref("lineitem"), Ref("returns")}}

	cold, err := eng.JoinPipeline(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.JoinPipeline(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Steps {
		if cold.Steps[i].Plan == nil || warm.Steps[i].Plan == nil {
			t.Fatalf("step %d: missing plan info on an auto pipeline", i)
		}
		if cold.Steps[i].Plan.CacheHit {
			t.Errorf("step %d: cold run reported a cache hit", i)
		}
		if !warm.Steps[i].Plan.CacheHit {
			t.Errorf("step %d: warm run missed the cache", i)
		}
		if !reflect.DeepEqual(cold.Steps[i].Result, warm.Steps[i].Result) {
			t.Errorf("step %d: Result differs between cold and warm plan cache", i)
		}
	}
	if !reflect.DeepEqual(cold.Final, warm.Final) {
		t.Error("final Result differs between cold and warm plan cache")
	}
	if cold.TotalNS != warm.TotalNS {
		t.Errorf("TotalNS %.0f (cold) != %.0f (warm)", cold.TotalNS, warm.TotalNS)
	}
}

// TestPipelineInlineDeclarationOrder: inline sources carry no catalog
// statistics, so the pipeline runs in declaration order — and still
// matches the oracle.
func TestPipelineInlineDeclarationOrder(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	r := Gen{N: 8000, Seed: 3}.Build()
	s := Gen{N: 12000, Dist: HighSkew, Seed: 4}.Probe(r, 0.8)
	u := Gen{N: 6000, Seed: 5}.Probe(r, 0.5)
	srcs := []Source{Inline(r), Inline(s), Inline(u)}

	pr, err := eng.JoinPipeline(context.Background(), Pipeline{Sources: srcs}, pipelineTestOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Ordered {
		t.Error("inline pipeline claims cost-based ordering")
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(pr.Order, want) {
		t.Errorf("order = %v, want declaration %v", pr.Order, want)
	}
	if want := oracle.PipelineCount([]Relation{r, s, u}); pr.Final.Matches != want {
		t.Errorf("matches %d, want oracle %d", pr.Final.Matches, want)
	}
	// DeclaredOrder on all-catalog sources pins declaration order too.
	pipelineFixture(t, eng)
	dp, err := eng.JoinPipeline(context.Background(), Pipeline{
		Sources:       []Source{Ref("orders"), Ref("lineitem"), Ref("returns")},
		DeclaredOrder: true,
	}, pipelineTestOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Ordered || !reflect.DeepEqual(dp.Order, []int{0, 1, 2}) {
		t.Errorf("DeclaredOrder: ordered=%v order=%v", dp.Ordered, dp.Order)
	}
}

// TestPipelineErrors covers the argument and resolution failure modes.
func TestPipelineErrors(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	ctx := context.Background()

	if _, err := eng.JoinPipeline(ctx, Pipeline{Sources: []Source{Ref("x")}}); !errors.Is(err, service.ErrPipelineTooShort) {
		t.Errorf("1-source pipeline: err %v, want ErrPipelineTooShort", err)
	}
	if _, err := eng.JoinPipeline(ctx, Pipeline{Sources: []Source{Ref("nope"), Ref("nada")}}); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("unknown refs: err %v, want catalog.ErrNotFound", err)
	}
	// An intermediate that does not fit the catalog's residency budget:
	// capacity fits the two 64–72 KB inputs but not the 72 KB intermediate
	// the selectivity-1 first step hands on.
	small := NewEngine(CatalogCapacity(150 << 10))
	defer small.Close()
	r := Gen{N: 8000, Seed: 1}.Build()
	s := Gen{N: 9000, Seed: 2}.Probe(r, 1.0)
	u := Gen{N: 8000, Seed: 6}.Probe(r, 1.0)
	if _, err := small.Load("r", r); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Load("s", s); err != nil {
		t.Fatal(err)
	}
	// The pipeline spills instead of failing: it completes with the
	// unconstrained matches and reports the spill, and the residency
	// budget is back to the two registered relations afterwards.
	res, err := small.JoinPipeline(ctx, Pipeline{
		Sources: []Source{Ref("r"), Ref("s"), Inline(u)},
	}, pipelineTestOpts...)
	if err != nil {
		t.Fatalf("streamed pipeline under budget pressure: %v", err)
	}
	if res.SpilledPartitions == 0 || res.SpillBytes == 0 {
		t.Errorf("overflowing streamed pipeline reports no spill: partitions=%d bytes=%d",
			res.SpilledPartitions, res.SpillBytes)
	}
	if got, want := small.svc.Stats().Catalog.Bytes, r.Bytes()+s.Bytes(); got != want {
		t.Errorf("catalog bytes after spilled pipeline = %d, want %d", got, want)
	}
}

// TestEngineClosePipelinesInFlight: Close with pipelines mid-flight leaks
// no goroutines — in-flight chains complete on their submitter goroutines
// and the resident workers drain.
func TestEngineClosePipelinesInFlight(t *testing.T) {
	before := runtime.NumGoroutine()

	eng := NewEngine(Workers(4))
	pipelineFixture(t, eng)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.JoinPipeline(context.Background(), Pipeline{Sources: []Source{
				Ref("orders"), Ref("lineitem"), Ref("returns"),
			}}, pipelineTestOpts...)
			if err != nil {
				t.Errorf("in-flight pipeline: %v", err)
			}
		}()
	}
	// Let the pipelines start, then close the engine underneath them.
	time.Sleep(2 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after Close: %d, want <= %d", g, before)
	}
}

// TestPipelineRefMatchesInline: a pipeline over registered sources — whose
// chains read the first build side's ingest-time count table — reports
// exactly what the same pipeline over inline copies reports, whose chains
// count their slices per query: every step's Result and plan decision, the
// final Result, the spill gauges and the resident peak. Unsharded, on one
// and on four shards, with explicit and auto-planned steps, both under a
// budget that spills and one that does not. The inline engine registers the
// same relations too, so both see the same per-partition budget.
func TestPipelineRefMatchesInline(t *testing.T) {
	r := Gen{N: 16000, Seed: 1}.Build()
	rels := []Relation{r, Gen{N: 16000, Seed: 2}.Probe(r, 1.0), Gen{N: 16000, Seed: 3}.Probe(r, 1.0)}
	names := []string{"r", "s", "u"}
	refs := []Source{Ref("r"), Ref("s"), Ref("u")}
	var inlines []Source
	for _, rl := range rels {
		inlines = append(inlines, Inline(Relation{Keys: slices.Clone(rl.Keys)}))
	}
	ctx := context.Background()
	run := func(t *testing.T, shards int, budget int64, srcs []Source, opts []JoinOption) *PipelineResult {
		t.Helper()
		eng := NewEngine(Workers(2), WithShards(shards), CatalogCapacity(budget))
		defer eng.Close()
		for i, rl := range rels {
			if _, err := eng.Load(names[i], rl); err != nil {
				t.Fatal(err)
			}
		}
		pr, err := eng.JoinPipeline(ctx, Pipeline{Sources: srcs, DeclaredOrder: true}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	base := []JoinOption{WithDelta(0.25), WithPilotItems(1 << 8)}
	for _, shards := range []int{0, 1, 4} {
		// 397 600 bytes spill every selectivity-1 intermediate
		// (TestShardSpillInvariance); 1 MB holds them all.
		for _, budget := range []int64{397_600, 1 << 20} {
			for _, auto := range []bool{false, true} {
				opts := base
				if auto {
					opts = append(slices.Clone(base), WithAuto())
				}
				name := fmt.Sprintf("shards=%d/budget=%d/auto=%v", shards, budget, auto)
				t.Run(name, func(t *testing.T) {
					ref, inl := run(t, shards, budget, refs, opts), run(t, shards, budget, inlines, opts)
					if spilled := ref.SpilledPartitions > 0; spilled != (budget < 1<<20) {
						t.Errorf("spilled %d partitions under a budget of %d", ref.SpilledPartitions, budget)
					}
					if len(ref.Steps) != len(inl.Steps) {
						t.Fatalf("%d steps over Ref sources, %d over Inline ones", len(ref.Steps), len(inl.Steps))
					}
					for i := range ref.Steps {
						if !reflect.DeepEqual(ref.Steps[i].Result, inl.Steps[i].Result) || !reflect.DeepEqual(ref.Steps[i].Plan, inl.Steps[i].Plan) {
							t.Errorf("step %d differs between Ref and Inline sources", i+1)
						}
					}
					if !reflect.DeepEqual(ref.Final, inl.Final) {
						t.Error("Final differs between Ref and Inline sources")
					}
					type gauges struct {
						spilled, bytes, peak int64
						ns                   float64
						depth                int
					}
					if g, h := (gauges{ref.SpilledPartitions, ref.SpillBytes, ref.PeakIntermediateBytes, ref.SpillNS, ref.SpillDepth}),
						(gauges{inl.SpilledPartitions, inl.SpillBytes, inl.PeakIntermediateBytes, inl.SpillNS, inl.SpillDepth}); g != h {
						t.Errorf("spill gauges and peak over Ref sources %+v, over Inline ones %+v", g, h)
					}
				})
			}
		}
	}
}
