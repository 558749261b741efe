// Multiquery: the join service layer. A resident worker pool serves many
// concurrent queries — heterogeneous algorithms, schemes and datasets —
// through bounded admission, and the determinism contract survives the
// interleaving: every query's match count and simulated times are
// bit-identical to the same query run alone (see DESIGN.md). The example
// runs a small mixed workload twice, serially and fully interleaved, and
// verifies the results agree before printing the service metrics.
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

type workload struct {
	name string
	opt  core.Options
	dist rel.Distribution
	seed int64
}

func main() {
	queries := []workload{
		{"PHJ-PL uniform", core.Options{Algo: core.PHJ, Scheme: core.PL}, rel.Uniform, 1},
		{"SHJ-PL uniform", core.Options{Algo: core.SHJ, Scheme: core.PL}, rel.Uniform, 2},
		{"PHJ-DD high-skew", core.Options{Algo: core.PHJ, Scheme: core.DD}, rel.HighSkew, 3},
		{"SHJ-OL low-skew", core.Options{Algo: core.SHJ, Scheme: core.OL}, rel.LowSkew, 4},
	}
	data := func(w workload) (rel.Relation, rel.Relation) {
		r := rel.Gen{N: 1 << 18, Dist: w.dist, Seed: w.seed}.Build()
		s := rel.Gen{N: 1 << 18, Dist: w.dist, Seed: w.seed + 100}.Probe(r, 1.0)
		return r, s
	}

	svc := service.New(service.Config{MaxConcurrent: len(queries)})
	defer svc.Close()

	// Round 1: one at a time through the service.
	serial := make([]*core.Result, len(queries))
	serialStart := time.Now()
	for i, wl := range queries {
		r, s := data(wl)
		q, err := svc.Submit(context.Background(), r, s, wl.opt)
		if err != nil {
			log.Fatal(err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		serial[i] = res
	}
	serialWall := time.Since(serialStart)

	// Round 2: all in flight at once on the same pool.
	qs := make([]*service.Query, len(queries))
	interStart := time.Now()
	for i, wl := range queries {
		r, s := data(wl)
		q, err := svc.Submit(context.Background(), r, s, wl.opt)
		if err != nil {
			log.Fatal(err)
		}
		qs[i] = q
	}
	for i, q := range qs {
		res, err := q.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if res.Matches != serial[i].Matches || res.TotalNS != serial[i].TotalNS {
			log.Fatalf("%s: interleaving changed results — this is a bug", queries[i].name)
		}
	}
	interWall := time.Since(interStart)

	fmt.Printf("mixed workload, %d queries of 256Ki ⋈ 256Ki tuples:\n", len(queries))
	for i, wl := range queries {
		fmt.Printf("  %-18s matches %8d   simulated %7.2f ms\n",
			wl.name, serial[i].Matches, serial[i].TotalNS/1e6)
	}
	fmt.Printf("\nserial %v, interleaved %v — identical matches and simulated times.\n",
		serialWall.Round(time.Millisecond), interWall.Round(time.Millisecond))

	st := svc.Stats()
	fmt.Printf("service: %d workers, %d completed, %d total matches, %.2f ms simulated, %.2f ms host wall\n",
		st.Workers, st.Completed, st.Matches, st.SimulatedNS/1e6, float64(st.WallNS)/1e6)
}
