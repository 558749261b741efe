package apujoin_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"apujoin"
)

// Register the relations once, join them by name, and check the exact
// match count against a naive map join over the same generated data. The
// time is the device model's: simulated, so identical on every host.
func ExampleEngine_Join() {
	eng := apujoin.NewEngine()
	defer eng.Close()
	build := apujoin.Gen{N: 1 << 16, Seed: 1}
	probe := apujoin.Gen{N: 1 << 16, Seed: 2}
	if _, err := eng.Register("orders", build); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterProbe("lineitem", "orders", probe, 1.0); err != nil {
		log.Fatal(err)
	}

	res, err := eng.Join(context.Background(), apujoin.Ref("orders"), apujoin.Ref("lineitem"),
		apujoin.WithAlgo(apujoin.PHJ), apujoin.WithScheme(apujoin.PL))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s-%s: %d matches, %.3f ms simulated\n", res.Algo, res.Scheme, res.Matches, res.TotalNS/1e6)

	r := build.Build()
	fmt.Println("naive join agrees:", apujoin.NaiveJoinCount(r, probe.Probe(r, 1.0)) == res.Matches)
	// Output:
	// PHJ-PL: 65536 matches, 1.975 ms simulated
	// naive join agrees: true
}

// A three-way join declared in its worst order: the orderer reorders it
// from the catalog's ingest-time statistics, and the planner picks each
// step's algorithm and scheme (WithAuto).
func ExampleEngine_JoinPipeline() {
	eng := apujoin.NewEngine()
	defer eng.Close()
	if _, err := eng.Register("orders", apujoin.Gen{N: 1 << 16, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterProbe("lineitem", "orders", apujoin.Gen{N: 1 << 16, Dist: apujoin.LowSkew, Seed: 2}, 1.0); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterProbe("returns", "orders", apujoin.Gen{N: 1 << 14, Seed: 3}, 0.2); err != nil {
		log.Fatal(err)
	}

	pr, err := eng.JoinPipeline(context.Background(), apujoin.Pipeline{Sources: []apujoin.Source{
		apujoin.Ref("orders"), apujoin.Ref("lineitem"), apujoin.Ref("returns"),
	}}, apujoin.WithAuto())
	if err != nil {
		log.Fatal(err)
	}
	for i, st := range pr.Steps {
		fmt.Printf("step %d: %s ⋈ %s → %d tuples [%s-%s]\n",
			i+1, st.Build, st.Probe, st.OutTuples, st.Plan.Algo, st.Plan.Scheme)
	}
	fmt.Printf("order %v: %d matches, %.3f ms simulated\n", pr.Order, pr.Final.Matches, pr.TotalNS/1e6)
	// Output:
	// step 1: returns ⋈ orders → 3235 tuples [SHJ-PL]
	// step 2: step1 ⋈ lineitem → 2856 tuples [SHJ-PL]
	// order [2 0 1]: 2856 matches, 0.885 ms simulated
}

// Data larger than the zero-copy buffer: Join refuses it, JoinExternal
// partitions it through the buffer in chunks (paper appendix). The buffer
// is shrunk to 512 KB so that 2^16 tuples a side overflow it.
func ExampleEngine_JoinExternal() {
	eng := apujoin.NewEngine()
	defer eng.Close()
	r := apujoin.Gen{N: 1 << 16, Seed: 21}.Build()
	s := apujoin.Gen{N: 1 << 16, Seed: 22}.Probe(r, 1.0)
	opt := apujoin.WithOptions(apujoin.Options{
		Algo: apujoin.PHJ, Scheme: apujoin.PL, ZeroCopy: apujoin.ZeroCopyBuffer(1 << 19),
	})
	ctx := context.Background()

	_, err := eng.Join(ctx, apujoin.Inline(r), apujoin.Inline(s), opt)
	fmt.Println("Join exceeds the buffer:", errors.Is(err, apujoin.ErrExceedsZeroCopy))

	ext, err := eng.JoinExternal(ctx, apujoin.Inline(r), apujoin.Inline(s), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("JoinExternal: %d pairs, %d matches, %.3f ms simulated (partition %.3f, join %.3f, copy %.3f)\n",
		ext.Pairs, ext.Matches, ext.TotalNS/1e6, ext.PartitionNS/1e6, ext.JoinNS/1e6, ext.DataCopyNS/1e6)
	// Output:
	// Join exceeds the buffer: true
	// JoinExternal: 64 pairs, 65536 matches, 9.734 ms simulated (partition 1.482, join 7.728, copy 0.524)
}
