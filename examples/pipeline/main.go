// Pipeline: a multi-way join over registered relations, executed as a
// chain of pairwise joins with the intermediates streamed step to step.
// The example registers a small star — one build relation, a wide
// selectivity-1 probe and a narrow selective probe — declares the pipeline
// in the worst order on purpose, and shows the greedy cost-based orderer
// (fed by the catalog's ingest-time skew/selectivity statistics) picking a
// cheaper left-deep order, then verifies the determinism contract: the
// same pipeline forced into declaration order produces the identical final
// match count at a higher simulated cost.
package main

import (
	"context"
	"fmt"
	"log"

	"apujoin"
)

func main() {
	eng := apujoin.NewEngine()
	defer eng.Close()
	ctx := context.Background()

	if _, err := eng.Register("orders", apujoin.Gen{N: 1 << 18, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterProbe("lineitem", "orders", apujoin.Gen{N: 1 << 18, Dist: apujoin.LowSkew, Seed: 2}, 1.0); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterProbe("returns", "orders", apujoin.Gen{N: 1 << 16, Seed: 3}, 0.2); err != nil {
		log.Fatal(err)
	}

	// Declared worst-first: the selectivity-1 wide join leads. The orderer
	// reorders from statistics; each step still goes through the planner
	// (WithAuto) and the shared plan cache.
	pipe := apujoin.Pipeline{Sources: []apujoin.Source{
		apujoin.Ref("orders"), apujoin.Ref("lineitem"), apujoin.Ref("returns"),
	}}
	pr, err := eng.JoinPipeline(ctx, pipe, apujoin.WithAuto())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost-based order %v (ordered=%v)\n", pr.Order, pr.Ordered)
	for i, st := range pr.Steps {
		fmt.Printf("  step %d: %-9s ⋈ %-9s %8d ⋈ %8d → %8d tuples  %8.3f ms  [%s-%s]\n",
			i+1, st.Build, st.Probe, st.BuildTuples, st.ProbeTuples, st.OutTuples,
			st.Result.TotalNS/1e6, st.Plan.Algo, st.Plan.Scheme)
	}
	fmt.Printf("final: %d matches, %.3f ms simulated; intermediates %d tuples / %d bytes, peak %d resident\n\n",
		pr.Final.Matches, pr.TotalNS/1e6, pr.IntermediateTuples, pr.IntermediateBytes, pr.PeakIntermediateBytes)

	// Same pipeline, declaration order: identical final matches, more
	// expensive chain — ordering is a cost decision, never a result one.
	declared, err := eng.JoinPipeline(ctx, apujoin.Pipeline{Sources: pipe.Sources, DeclaredOrder: true},
		apujoin.WithAuto())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("declaration order %v: %d matches, %.3f ms simulated (%.2fx the ordered chain)\n",
		declared.Order, declared.Final.Matches, declared.TotalNS/1e6, declared.TotalNS/pr.TotalNS)
	if declared.Final.Matches != pr.Final.Matches {
		log.Fatal("BUG: join order changed the multi-way match count")
	}
}
