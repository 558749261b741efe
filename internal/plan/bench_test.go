package plan

import (
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// Both benchmarks below time a fixture whose simulated results are exact
// functions of data and options. The fixture is one function shared with
// golden_test.go, which asserts those results bit for bit under plain
// `go test`, so the invariants it carries fire in tier-1 and not only
// under -bench.

// plannerTuples sizes both sides of the planner-amortization join.
const plannerTuples = 1 << 17

// plannerAmortizationShape is one auto-planned join run through a plan
// cache. run plans and executes it once — warm on a cache shared across
// runs and primed here, so the fingerprint hits and the pilot and the
// grid searches are amortized away; cold on a fresh cache, paying the
// miss an unplanned core.Run pays too — and returns the simulated total.
// Both inject the identical plan, so matches and simulated time must be
// the same whatever the cache's temperature, and either cache must have
// missed exactly once.
func plannerAmortizationShape(tb testing.TB) (run func(tb testing.TB, warm bool) float64) {
	r := rel.Gen{N: plannerTuples, Seed: 1}.Build()
	s := rel.Gen{N: plannerTuples, Seed: 2}.Probe(r, 1.0)
	opt := core.Options{Delta: 0.1, PilotItems: 1 << 13}

	shared := NewCache(4)
	var ref *core.Result
	run = func(tb testing.TB, warm bool) float64 {
		tb.Helper()
		p := shared
		if !warm {
			p = NewCache(4)
		}
		pl, _, err := planOn(p, r, s, opt)
		if err != nil {
			tb.Fatal(err)
		}
		o := opt
		o.Plan = pl
		res, err := core.Run(r, s, o)
		if err != nil {
			tb.Fatal(err)
		}
		if ref == nil {
			ref = res
		}
		if res.Matches == 0 || res.Matches != ref.Matches || res.TotalNS != ref.TotalNS {
			tb.Fatalf("cache state changed results: matches %d (want %d), simNS %v (want %v)",
				res.Matches, ref.Matches, res.TotalNS, ref.TotalNS)
		}
		if st := p.Stats(); st.Misses != 1 {
			tb.Fatalf("warm=%v cache missed %d times, want 1", warm, st.Misses)
		}
		return res.TotalNS
	}
	run(tb, true) // prime the shared cache
	return run
}

// BenchmarkPlannerAmortization measures what the plan cache buys in steady
// state: cold plans every query from scratch, warm hits the cache. The
// ns/op gap is pure plan-time host cost; sim_ns/op is constant across the
// two by construction.
func BenchmarkPlannerAmortization(b *testing.B) {
	run := plannerAmortizationShape(b)
	for _, v := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(2 * 8 * plannerTuples)
			var simNS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simNS = run(b, v.warm)
			}
			b.ReportMetric(simNS, "sim_ns/op")
		})
	}
}

// pipelineOrderingShape is a 3-relation pipeline whose declaration order
// is deliberately bad: the selectivity-1 wide join first. run executes the
// chain once — in OrderPipelineEst's order or as declared, the pairwise joins
// otherwise identical — and returns its summed simulated time. Ordering
// must never change the multi-way match count, and the ordered chain must
// stay strictly cheaper than the declared one.
func pipelineOrderingShape(tb testing.TB) (run func(tb testing.TB, ordered bool) float64) {
	r0 := rel.Gen{N: 1 << 16, Seed: 1}.Build()
	r1 := rel.Gen{N: 1 << 16, Seed: 2}.Probe(r0, 1.0) // wide: every tuple matches
	r2 := rel.Gen{N: 1 << 14, Seed: 3}.Probe(r0, 0.1) // selective and small
	rels := []rel.Relation{r0, r1, r2}
	opt := core.Options{Delta: 0.25, PilotItems: 1 << 12}

	// Pair workloads measured once, the way the catalog measures at ingest.
	type pair struct{ i, j int }
	workloads := make(map[pair]Workload)
	for i := range rels {
		for j := range rels {
			if i != j {
				workloads[pair{i, j}] = MeasureWorkload(rels[i], rels[j])
			}
		}
	}
	pr := make([]PipeRel, len(rels))
	for i, rl := range rels {
		pr[i] = PipeRel{Tuples: rl.Len()}
	}
	order, _, ok := OrderPipelineEst(pr, func(i, j int) (Workload, bool) {
		w, ok := workloads[pair{i, j}]
		return w, ok
	})
	if !ok {
		tb.Fatal("orderer fell back to declaration order despite full statistics")
	}
	orders := map[bool][]int{true: order, false: {0, 1, 2}}

	var refMatches int64
	simNS := map[bool]float64{}
	return func(tb testing.TB, ordered bool) float64 {
		tb.Helper()
		order := orders[ordered]
		var matches int64
		var total float64
		cur := rels[order[0]]
		for t := 1; t < len(order); t++ {
			res, err := core.Run(cur, rels[order[t]], opt)
			if err != nil {
				tb.Fatal(err)
			}
			total += res.TotalNS
			matches = res.Matches
			if t < len(order)-1 {
				cur = rel.JoinMaterialize(cur, rels[order[t]])
			}
		}
		if refMatches == 0 {
			refMatches = matches
		}
		if matches == 0 || matches != refMatches {
			tb.Fatalf("ordering changed the multi-way count: ordered=%v found %d, the other order %d", ordered, matches, refMatches)
		}
		simNS[ordered] = total
		if len(simNS) == 2 && simNS[true] >= simNS[false] {
			tb.Fatalf("ordered chain costs %v simulated ns, declared %v: the orderer buys nothing", simNS[true], simNS[false])
		}
		return total
	}
}

// BenchmarkPipelineOrdering measures what the greedy cost-based join
// orderer buys on the badly declared 3-relation pipeline: both variants
// report their deterministic summed simulated time as sim_ns/op beside the
// host ns/op.
func BenchmarkPipelineOrdering(b *testing.B) {
	run := pipelineOrderingShape(b)
	for _, v := range []struct {
		name    string
		ordered bool
	}{{"ordered", true}, {"declared", false}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var simNS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simNS = run(b, v.ordered)
			}
			b.ReportMetric(simNS, "sim_ns/op")
		})
	}
}
