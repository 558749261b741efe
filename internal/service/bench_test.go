package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// Each benchmark below times a fixture whose simulated results are exact
// functions of data and options. The fixture is one function shared with
// golden_test.go, which asserts those results bit for bit under plain
// `go test`, so the invariants it carries fire in tier-1 and not only
// under -bench.

// benchTuples sizes both sides of every join in this file.
const benchTuples = 1 << 17

// mustRepeat fails unless res found matches and repeats ref's count and
// simulated total bit for bit.
func mustRepeat(tb testing.TB, res, ref *core.Result) {
	tb.Helper()
	if res.Matches == 0 || res.Matches != ref.Matches || res.TotalNS != ref.TotalNS {
		tb.Fatalf("results drifted: matches %d (want %d), simNS %v (want %v)",
			res.Matches, ref.Matches, res.TotalNS, ref.TotalNS)
	}
}

// serviceThroughputShape is one service with four admission slots. run
// submits n identical PHJ-PL joins onto the shared resident pool, waits for
// all of them and returns the simulated total, which — like the match
// count — must be the same for every query whatever ran beside it.
func serviceThroughputShape(tb testing.TB) (run func(tb testing.TB, n int) float64) {
	r := rel.Gen{N: benchTuples, Seed: 1}.Build()
	s := rel.Gen{N: benchTuples, Seed: 2}.Probe(r, 1.0)
	opt := core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 1 << 13}

	svc := New(Config{MaxConcurrent: 4, MaxQueue: 1 << 20})
	tb.Cleanup(func() { svc.Close() })

	var ref *core.Result
	return func(tb testing.TB, n int) float64 {
		tb.Helper()
		queries := make([]*Query, 0, n)
		for i := 0; i < n; i++ {
			q, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: opt})
			if err != nil {
				tb.Fatal(err)
			}
			queries = append(queries, q)
		}
		for _, q := range queries {
			res, err := q.Wait(context.Background())
			if err != nil {
				tb.Fatal(err)
			}
			if ref == nil {
				ref = res
			}
			mustRepeat(tb, res, ref)
		}
		return ref.TotalNS
	}
}

// BenchmarkServiceThroughput measures end-to-end query throughput of the
// service layer: b.N joins submitted through admission, MaxConcurrent in
// flight at a time. ns/op is host wall-clock per query at service
// concurrency.
func BenchmarkServiceThroughput(b *testing.B) {
	run := serviceThroughputShape(b)
	b.SetBytes(2 * 8 * benchTuples)
	b.ResetTimer()
	b.ReportMetric(run(b, b.N), "sim_ns/op")
}

// catalogReuseShape is one auto-planned query on a service of its own,
// its relations either catalog handles (no generation, ingest-time
// statistics feed the fingerprint) or regenerated and re-measured per
// submission — apujoind's pre-catalog behavior. The shared plan cache is
// primed before run is returned; run submits once more and returns the
// simulated total, which must equal the priming query's. Both variants run
// the identical join, so the two totals are equal as well — the golden
// test holds them to one literal.
func catalogReuseShape(tb testing.TB, inline bool) (run func(tb testing.TB) float64) {
	rg := rel.Gen{N: benchTuples, Seed: 1}
	sg := rel.Gen{N: benchTuples, Seed: 2}
	opt := core.Options{Delta: 0.1, PilotItems: 1 << 13}
	spec := func() JoinSpec {
		if !inline {
			return JoinSpec{RName: "r", SName: "s", Opt: opt, Auto: true}
		}
		r := rg.Build()
		return JoinSpec{R: r, S: sg.Probe(r, 1.0), Opt: opt, Auto: true}
	}

	svc := New(Config{MaxConcurrent: 2, MaxQueue: 1 << 20})
	tb.Cleanup(func() { svc.Close() })
	if _, err := svc.RegisterGen("r", rg); err != nil {
		tb.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", sg, 1.0); err != nil {
		tb.Fatal(err)
	}
	submit := func(tb testing.TB) *core.Result {
		tb.Helper()
		q, err := svc.SubmitSpec(context.Background(), spec())
		if err != nil {
			tb.Fatal(err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	ref := submit(tb)
	return func(tb testing.TB) float64 {
		tb.Helper()
		res := submit(tb)
		mustRepeat(tb, res, ref)
		return res.TotalNS
	}
}

// BenchmarkCatalogReuse measures what registering data once buys: the
// end-to-end submit latency of a warm auto-planned query by handle against
// the same query regenerating its relations per submission. sim_ns/op is
// equal by construction; the ns/op gap is pure host-side generation plus
// measurement.
func BenchmarkCatalogReuse(b *testing.B) {
	for _, v := range []struct {
		name   string
		inline bool
	}{{"catalog", false}, {"inline-regen", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			run := catalogReuseShape(b, v.inline)
			b.SetBytes(2 * 8 * benchTuples)
			var simNS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simNS = run(b)
			}
			b.ReportMetric(simNS, "sim_ns/op")
		})
	}
}

// shardedScaleoutShape is one catalog join on a service of the given shard
// count. run executes the join once and returns the simulated total, which
// must equal the first run's; every shard count >= 1 is the same sharded
// engine — the golden test holds shards=1 and shards=8 to one literal.
func shardedScaleoutShape(tb testing.TB, shards int) (run func(tb testing.TB) float64) {
	svc := New(Config{Shards: shards})
	tb.Cleanup(func() { svc.Close() })
	if _, err := svc.RegisterGen("r", rel.Gen{N: benchTuples, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: benchTuples, Seed: 2}, 1.0); err != nil {
		tb.Fatal(err)
	}
	spec := JoinSpec{RName: "r", SName: "s",
		Opt: core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 1 << 13}}
	var ref *core.Result
	return func(tb testing.TB) float64 {
		tb.Helper()
		res, err := svc.RunJoin(context.Background(), spec)
		if err != nil {
			tb.Fatal(err)
		}
		if ref == nil {
			ref = res
		}
		mustRepeat(tb, res, ref)
		return res.TotalNS
	}
}

// BenchmarkShardedScaleout measures the stateless router's host-side cost
// of the fan-out: the identical catalog join over the grid of one (the
// unsharded engine) and over the grid of eight partitions. ns/op is host
// wall-clock per join; the two grids' simulated totals differ.
func BenchmarkShardedScaleout(b *testing.B) {
	for _, shards := range []int{0, 1} {
		b.Run(fmt.Sprintf("grid=%d", shard.GridFor(shards)), func(b *testing.B) {
			run := shardedScaleoutShape(b, shards)
			run(b) // first fan-out outside the timer
			b.SetBytes(2 * 8 * benchTuples)
			var simNS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simNS = run(b)
			}
			b.ReportMetric(simNS, "sim_ns/op")
		})
	}
}

// BenchmarkSpilledPipeline times one warm spilled pipeline on two workers:
// the depth-0 and depth ≥ 1 shapes whose digests TestSpilledPipelineUnchanged
// pins, each on a service whose plan cache a first run outside the timer
// primed. Every run must return the first run's PipelineResult. ns/op is
// host wall-clock per pipeline; plan_misses/op is what a warm run costs the
// default 128-entry cache, 0 while only a spill level's leader plans.
func BenchmarkSpilledPipeline(b *testing.B) {
	for _, sh := range spillShapes()[:2] {
		b.Run(sh.name, func(b *testing.B) {
			svc := sh.load(b, 2)
			first := sh.exec(b, svc)
			misses := svc.Stats().PlanMisses
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pr := sh.exec(b, svc); !reflect.DeepEqual(pr, first) {
					b.Fatalf("run %d differs from the first run (TotalNS %v, want %v)", i, pr.TotalNS, first.TotalNS)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(svc.Stats().PlanMisses-misses)/float64(b.N), "plan_misses/op")
			b.ReportMetric(first.TotalNS, "sim_ns/op")
		})
	}
}
