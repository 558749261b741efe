// Autoplan: the adaptive planner in front of the join service. Queries
// are submitted with SubmitAuto — no algorithm, no scheme — and the
// planner fingerprints each workload (sizes, tuple widths, measured skew
// and selectivity buckets, device pair), builds the cheapest full plan on
// the first sighting of a shape (one pilot run, both algorithms, every
// applicable scheme) and serves every repeat of that shape from the plan
// cache, skipping the pilot and the ratio searches entirely. The example
// runs three distinct workload shapes, each several times (note different
// seeds — equivalent relations fingerprint identically), then prints what
// was chosen, the cache hit rate, and the cost model's
// predicted-vs-simulated error.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/service"
)

type shape struct {
	name string
	nr   int
	ns   int
	dist rel.Distribution
	sel  float64
}

func main() {
	shapes := []shape{
		{"balanced 1Mi ⋈ 1Mi uniform", 1 << 20, 1 << 20, rel.Uniform, 1.0},
		{"small-build 16Ki ⋈ 256Ki high-skew", 1 << 14, 1 << 18, rel.HighSkew, 0.2},
		{"half-selective 128Ki ⋈ 128Ki low-skew", 1 << 17, 1 << 17, rel.LowSkew, 0.5},
	}
	const repeats = 3
	opt := core.Options{Delta: 0.1, PilotItems: 1 << 13}

	svc := service.New(service.Config{MaxConcurrent: 2})
	defer svc.Close()

	start := time.Now()
	for round := 0; round < repeats; round++ {
		for i, sh := range shapes {
			// A fresh seed every round: the data differs, the shape — and
			// therefore the fingerprint and the plan — does not.
			seed := int64(round*100 + i*10 + 1)
			r := rel.Gen{N: sh.nr, Dist: sh.dist, Seed: seed}.Build()
			s := rel.Gen{N: sh.ns, Dist: sh.dist, Seed: seed + 1}.Probe(r, sh.sel)

			q, err := svc.SubmitAuto(context.Background(), r, s, opt)
			if err != nil {
				log.Fatal(err)
			}
			res, err := q.Wait(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			info := q.Snapshot()
			cache := "miss — planned"
			if info.Plan.CacheHit {
				cache = "hit"
			}
			if round == 0 || round == repeats-1 {
				fmt.Printf("round %d  %-38s → %s-%-4s (cache %-13s) %8d matches, %7.2f ms simulated\n",
					round+1, sh.name, info.Plan.Algo, info.Plan.Scheme, cache,
					res.Matches, res.TotalNS/1e6)
			}
		}
		if round == 0 {
			fmt.Println("...")
		}
	}

	st := svc.Stats()
	fmt.Printf("\n%d auto-planned queries in %v: %d plan misses (one pilot each), %d cache hits\n",
		st.AutoPlanned, time.Since(start).Round(time.Millisecond), st.PlanMisses, st.PlanHits)
	fmt.Printf("cost model: %.2f ms predicted vs %.2f ms simulated — mean error %.1f%%\n",
		st.PlanPredictedNS/1e6, st.PlanSimulatedNS/1e6, st.MeanPlanErr()*100)
}
