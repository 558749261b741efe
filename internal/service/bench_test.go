package service

import (
	"context"
	"fmt"
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// BenchmarkServiceThroughput measures end-to-end query throughput of the
// service layer: b.N PHJ-PL joins submitted through admission onto the
// shared resident pool, MaxConcurrent in flight at a time. ns/op is host
// wall-clock per query at service concurrency; the simulated numbers are
// checked invariant against the first query. Its trajectory is recorded in
// BENCH_service.json by `make bench-json` and the CI artifact.
func BenchmarkServiceThroughput(b *testing.B) {
	r := rel.Gen{N: 1 << 17, Seed: 1}.Build()
	s := rel.Gen{N: 1 << 17, Seed: 2}.Probe(r, 1.0)
	opt := core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 1 << 13}

	svc := New(Config{MaxConcurrent: 4, MaxQueue: 1 << 20})
	defer svc.Close()

	b.SetBytes(r.Bytes() + s.Bytes())
	b.ResetTimer()

	queries := make([]*Query, 0, b.N)
	for i := 0; i < b.N; i++ {
		q, err := svc.Submit(context.Background(), r, s, opt)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	var refMatches int64
	var refSimNS float64
	for _, q := range queries {
		res, err := q.Wait(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if refMatches == 0 {
			refMatches, refSimNS = res.Matches, res.TotalNS
		} else if res.Matches != refMatches || res.TotalNS != refSimNS {
			b.Fatalf("concurrency changed results: matches %d (want %d), simNS %.0f (want %.0f)",
				res.Matches, refMatches, res.TotalNS, refSimNS)
		}
	}
	// Deterministic simulated time per query: the machine-independent
	// metric the CI benchmark-regression gate diffs.
	b.ReportMetric(refSimNS, "sim_ns/op")
}

// BenchmarkCatalogReuse measures what registering data once buys: the
// end-to-end submit latency of an auto-planned query whose relations are
// catalog handles (warm: no generation, ingest-time statistics feed the
// fingerprint, the plan cache hits) against the same query regenerating
// and re-measuring its relations per submission — apujoind's pre-catalog
// behavior. Both variants run the identical join, so sim_ns/op is equal by
// construction and the ns/op gap is pure host-side generation plus
// measurement. Recorded in BENCH_service.json and gated by bench-check.
func BenchmarkCatalogReuse(b *testing.B) {
	const tuples = 1 << 17
	rg := rel.Gen{N: tuples, Seed: 1}
	sg := rel.Gen{N: tuples, Seed: 2}
	opt := core.Options{Delta: 0.1, PilotItems: 1 << 13}

	run := func(b *testing.B, spec func() JoinSpec) {
		b.Helper()
		svc := New(Config{MaxConcurrent: 2, MaxQueue: 1 << 20})
		defer svc.Close()
		if _, err := svc.Catalog().RegisterGen("r", rg); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Catalog().RegisterProbe("s", "r", sg, 1.0); err != nil {
			b.Fatal(err)
		}
		// Prime the shared plan cache outside the timer so both variants
		// measure steady-state submits, not the one-off pilot.
		q, err := svc.SubmitSpec(context.Background(), spec())
		if err != nil {
			b.Fatal(err)
		}
		ref, err := q.Wait(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(tuples) * 8 * 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q, err := svc.SubmitSpec(context.Background(), spec())
			if err != nil {
				b.Fatal(err)
			}
			res, err := q.Wait(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if res.Matches != ref.Matches || res.TotalNS != ref.TotalNS {
				b.Fatalf("results drifted: matches %d (want %d), simNS %.0f (want %.0f)",
					res.Matches, ref.Matches, res.TotalNS, ref.TotalNS)
			}
		}
		b.ReportMetric(ref.TotalNS, "sim_ns/op")
	}

	b.Run("catalog", func(b *testing.B) {
		run(b, func() JoinSpec {
			return JoinSpec{RName: "r", SName: "s", Opt: opt, Auto: true}
		})
	})
	b.Run("inline-regen", func(b *testing.B) {
		run(b, func() JoinSpec {
			r := rg.Build()
			s := sg.Probe(r, 1.0)
			return JoinSpec{R: r, S: s, Opt: opt, Auto: true}
		})
	})
}

// BenchmarkShardedScaleout measures the stateless router's host-side cost
// against its parallelism: the identical catalog join on one shard and on
// the maximum (one shard per hash partition). ns/op is host wall-clock per
// fan-out join; sim_ns/op is the deterministic simulated time, which the
// shard-count-invariance contract requires to be bit-identical between the
// two variants — the regression gate diffs both. Recorded in
// BENCH_service.json by `make bench-json`.
func BenchmarkShardedScaleout(b *testing.B) {
	const tuples = 1 << 17
	rg := rel.Gen{N: tuples, Seed: 1}
	sg := rel.Gen{N: tuples, Seed: 2}
	opt := core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 1 << 13}

	run := func(b *testing.B, shards int) {
		b.Helper()
		svc := New(Config{Shards: shards})
		defer svc.Close()
		if _, err := svc.RegisterGen("r", rg); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.RegisterProbe("s", "r", sg, 1.0); err != nil {
			b.Fatal(err)
		}
		spec := JoinSpec{RName: "r", SName: "s", Opt: opt}
		ref, err := svc.RunJoin(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(tuples) * 8 * 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := svc.RunJoin(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Matches != ref.Matches || res.TotalNS != ref.TotalNS {
				b.Fatalf("results drifted: matches %d (want %d), simNS %.0f (want %.0f)",
					res.Matches, ref.Matches, res.TotalNS, ref.TotalNS)
			}
		}
		b.ReportMetric(ref.TotalNS, "sim_ns/op")
	}

	b.Run("shards=1", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("shards=%d", shard.Partitions), func(b *testing.B) { run(b, shard.Partitions) })
}
