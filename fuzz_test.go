package apujoin

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"apujoin/internal/oracle"
	"apujoin/internal/rel"
)

// fuzzCombos is every algorithm × scheme combination the fuzzer drives on
// the coupled architecture (CoarsePL is PHJ-only by definition), plus the
// discrete-architecture DD pair covering the separate-tables code path.
func fuzzCombos() []Options {
	base := Options{Delta: 0.25, PilotItems: 1 << 8}
	var combos []Options
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range []Scheme{CPUOnly, GPUOnly, OL, DD, PL, BasicUnit, CoarsePL} {
			if scheme == CoarsePL && algo != PHJ {
				continue
			}
			opt := base
			opt.Algo, opt.Scheme = algo, scheme
			combos = append(combos, opt)
		}
		opt := base
		opt.Algo, opt.Scheme, opt.Arch = algo, DD, Discrete
		combos = append(combos, opt)
	}
	return combos
}

// FuzzJoinAgainstOracle generates small relations across the size, skew and
// selectivity space and asserts that every algorithm × scheme combination —
// and every 3–4-relation pipeline, cost-ordered and declared — produces
// exactly the brute-force oracle's match count, and that the pipeline
// intermediates equal the oracle's reference join tuple for tuple. The
// pipeline is compared step for step against the hand-run chain (one Join
// per step, intermediates built with rel.JoinMaterialize), and a
// capacity-starved engine checks the residency-budget invariant: the
// pipeline spills intermediates that overflow the budget and still
// produces exactly the oracle's counts within the bounded repartitioning
// depth, leaving the budget intact.
// The seed corpus lives in testdata/fuzz/FuzzJoinAgainstOracle and runs as
// a plain unit test under `go test`; CI additionally explores new inputs
// with `go test -fuzz=FuzzJoinAgainstOracle -fuzztime=30s .`.
func FuzzJoinAgainstOracle(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(400), uint8(0), uint8(100), uint8(0))
	f.Add(int64(7), uint16(900), uint16(700), uint8(1), uint8(50), uint8(1))
	f.Add(int64(42), uint16(64), uint16(1000), uint8(2), uint8(25), uint8(0))
	// A 4-relation selectivity-1 chain whose intermediates dwarf the inputs
	// (budget pressure on the capacity-starved engine) and a zero-match
	// chain streaming empty intermediates.
	f.Add(int64(5005), uint16(900), uint16(901), uint8(0), uint8(100), uint8(1))
	f.Add(int64(6006), uint16(700), uint16(500), uint8(1), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, nr16, ns16 uint16, skew8, selPct8, four8 uint8) {
		nr := int(nr16)%1024 + 1
		ns := int(ns16)%1024 + 1
		dist := []Distribution{Uniform, LowSkew, HighSkew}[int(skew8)%3]
		sel := float64(int(selPct8)%101) / 100

		r := Gen{N: nr, Dist: dist, Seed: seed}.Build()
		s := Gen{N: ns, Dist: dist, Seed: seed + 1}.Probe(r, sel)
		want := oracle.JoinCount(r, s)

		// The intermediate materialization agrees with the independently
		// written reference join, tuple for tuple.
		if !reflect.DeepEqual(rel.JoinMaterialize(r, s), oracle.Join(r, s)) {
			t.Fatalf("seed=%d nr=%d ns=%d %v sel=%.2f: JoinMaterialize diverges from the oracle",
				seed, nr, ns, dist, sel)
		}

		join := inlineJoiner(t)
		for _, opt := range fuzzCombos() {
			res, err := join(r, s, opt)
			if err != nil {
				t.Fatalf("%s-%s on %s: %v", opt.Algo, opt.Scheme, opt.Arch, err)
			}
			if res.Matches != want {
				t.Errorf("%s-%s on %s: matches %d, oracle %d (seed=%d nr=%d ns=%d %v sel=%.2f)",
					opt.Algo, opt.Scheme, opt.Arch, res.Matches, want, seed, nr, ns, dist, sel)
			}
		}

		// Pipelines over 3–4 relations: extra probe relations of varied
		// selectivity against the same key domain. Cost-ordered catalog
		// refs and declaration-order inline sources must both match the
		// order-independent multi-way oracle.
		nrel := 3 + int(four8)%2
		buildRels := func(nr, ns int) []Relation {
			rr := Gen{N: nr, Dist: dist, Seed: seed}.Build()
			ss := Gen{N: ns, Dist: dist, Seed: seed + 1}.Probe(rr, sel)
			out := []Relation{rr, ss}
			for i := 2; i < nrel; i++ {
				g := Gen{N: (nr+ns)/2 + 1, Dist: dist, Seed: seed + int64(i)}
				out = append(out, g.Probe(rr, 1-sel/2))
			}
			return out
		}
		rels := buildRels(nr, ns)
		wantPipe := oracle.PipelineCount(rels)
		// A high-skew selectivity-1 chain can blow up to millions of
		// matches, and every pipeline run below does work proportional to
		// the blowup — while a single fuzz input has to stay well inside
		// the fuzz engine's hang detector even on the instrumented build.
		// Halve the sizes until the multi-way count is modest: ordering,
		// spill and invariance properties depend on the shape of the data,
		// not its volume.
		for wantPipe > 1<<19 && (nr > 8 || ns > 8) {
			nr, ns = nr/2+1, ns/2+1
			rels = buildRels(nr, ns)
			wantPipe = oracle.PipelineCount(rels)
		}
		wantJoin := oracle.JoinCount(rels[0], rels[1])

		eng := NewEngine(Workers(2))
		defer eng.Close()
		refs := make([]Source, len(rels))
		inlines := make([]Source, len(rels))
		for i, rl := range rels {
			name := fmt.Sprintf("rel%d", i)
			if _, err := eng.Load(name, rl); err != nil {
				t.Fatal(err)
			}
			refs[i] = Ref(name)
			inlines[i] = Inline(rl)
		}
		opts := []JoinOption{WithDelta(0.25), WithPilotItems(1 << 8)}
		ordered, err := eng.JoinPipeline(context.Background(), Pipeline{Sources: refs}, opts...)
		if err != nil {
			t.Fatalf("ordered pipeline: %v", err)
		}
		if ordered.Final.Matches != wantPipe {
			t.Errorf("ordered pipeline (order %v): matches %d, oracle %d (seed=%d nrel=%d)",
				ordered.Order, ordered.Final.Matches, wantPipe, seed, nrel)
		}
		declared, err := eng.JoinPipeline(context.Background(),
			Pipeline{Sources: inlines, DeclaredOrder: true}, opts...)
		if err != nil {
			t.Fatalf("declared pipeline: %v", err)
		}
		if declared.Final.Matches != wantPipe {
			t.Errorf("declared pipeline: matches %d, oracle %d (seed=%d nrel=%d)",
				declared.Final.Matches, wantPipe, seed, nrel)
		}

		// The pipeline is the hand-run chain, step for step: each step's
		// Result is the stand-alone Join of its inputs, bit for bit — except
		// a step with an empty side, which the pipeline skips (zero Result)
		// where a stand-alone Join would still run its kernels.
		cur := rels[ordered.Order[0]]
		for i, st := range ordered.Steps {
			probe := rels[ordered.Order[i+1]]
			if cur.Len() == 0 || probe.Len() == 0 {
				if st.Result.Matches != 0 || st.Result.TotalNS != 0 {
					t.Errorf("step %d: empty-side step reports %d matches in %v ns (seed=%d)", i, st.Result.Matches, st.Result.TotalNS, seed)
				}
			} else {
				want, err := eng.Join(context.Background(), Inline(cur), Inline(probe), opts...)
				if err != nil {
					t.Fatalf("hand-run step %d: %v", i, err)
				}
				if !reflect.DeepEqual(st.Result, want) {
					t.Errorf("step %d: pipeline Result differs from the hand-run Join (seed=%d nrel=%d)", i, seed, nrel)
				}
			}
			cur = rel.JoinMaterialize(cur, probe)
		}

		// A sharded engine — shard count derived from the input so the
		// fuzzer sweeps it alongside size, skew and selectivity — finds
		// exactly the oracle's counts for the same joins and pipelines,
		// and its pipeline Final is bit-identical to the unsharded
		// ordered run's match count (the shard-count-invariance contract
		// exercised on adversarial inputs, including relations tiny
		// enough to leave hash partitions empty).
		shardN := 1 + int(nr16)%4
		sharded := NewEngine(Workers(2), WithShards(shardN))
		defer sharded.Close()
		for i, rl := range rels {
			if _, err := sharded.Load(fmt.Sprintf("rel%d", i), rl); err != nil {
				t.Fatal(err)
			}
		}
		sres, err := sharded.Join(context.Background(), Ref("rel0"), Ref("rel1"), opts...)
		if err != nil {
			t.Fatalf("sharded join (%d shards): %v", shardN, err)
		}
		if sres.Matches != wantJoin {
			t.Errorf("sharded join (%d shards): matches %d, oracle %d (seed=%d)", shardN, sres.Matches, wantJoin, seed)
		}
		spipe, err := sharded.JoinPipeline(context.Background(), Pipeline{Sources: refs}, opts...)
		if err != nil {
			t.Fatalf("sharded pipeline (%d shards): %v", shardN, err)
		}
		if spipe.Final.Matches != wantPipe {
			t.Errorf("sharded pipeline (%d shards): matches %d, oracle %d (seed=%d nrel=%d)",
				shardN, spipe.Final.Matches, wantPipe, seed, nrel)
		}

		// Budget invariant on an engine whose capacity barely exceeds the
		// sources: the pipeline always completes — intermediates that
		// overflow the 1 KB of headroom spill through the bounded-depth
		// hybrid-hash store and the final count still equals the oracle —
		// and restores the budget completely.
		var srcBytes int64
		for _, rl := range rels {
			srcBytes += rl.Bytes()
		}
		tiny := NewEngine(Workers(2), CatalogCapacity(srcBytes+1024))
		defer tiny.Close()
		for i, rl := range rels {
			if _, err := tiny.Load(fmt.Sprintf("rel%d", i), rl); err != nil {
				t.Fatal(err)
			}
		}
		tinySt, errSt := tiny.JoinPipeline(context.Background(), Pipeline{Sources: refs}, opts...)
		if errSt != nil {
			t.Fatalf("tiny-budget streamed pipeline did not spill its way through: %v (seed=%d)", errSt, seed)
		}
		if tinySt.Final.Matches != wantPipe {
			t.Errorf("tiny-budget spilled pipeline: matches %d, oracle %d (seed=%d nrel=%d, %d partitions spilled)",
				tinySt.Final.Matches, wantPipe, seed, nrel, tinySt.SpilledPartitions)
		}
		if tinySt.SpillDepth < 0 || tinySt.SpillDepth > 3 {
			t.Errorf("tiny-budget spill depth %d outside the bounded range [0,3] (seed=%d)", tinySt.SpillDepth, seed)
		}
		if (tinySt.SpilledPartitions == 0) != (tinySt.SpillBytes == 0) {
			t.Errorf("inconsistent spill accounting: %d partitions, %d bytes (seed=%d)",
				tinySt.SpilledPartitions, tinySt.SpillBytes, seed)
		}
		if got := tiny.svc.Stats().Catalog.Bytes; got != srcBytes {
			t.Errorf("tiny budget not restored: %d bytes resident, want %d (seed=%d)", got, srcBytes, seed)
		}
	})
}
