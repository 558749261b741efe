package apujoin

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"apujoin/internal/exp"
)

// The paper's evaluation is regenerated by internal/exp; every table and
// figure gets a benchmark wrapper here so `go test -bench=.` replays the
// full evaluation. Benches run at a reduced scale (see EXPERIMENTS.md for
// the recorded paper-vs-measured comparison at the scale the harness
// defaults to; `cmd/experiments -tuples N` rescales).

func benchConfig() exp.Config {
	return exp.Config{
		Tuples:         1 << 17,
		Quick:          true,
		Delta:          0.1,
		MonteCarloRuns: 200,
		PilotItems:     1 << 13,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1Devices(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig3Breakdown(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkFig4UnitCosts(b *testing.B)           { benchExperiment(b, "fig4") }
func BenchmarkFig5RatiosSHJ(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6RatiosPHJ(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7CostModel(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8SpecialPL(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9MonteCarlo(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10SharedVsSeparate(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11BlockSize(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12Allocators(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13Uniform(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkFig14HighSkew(b *testing.B)           { benchExperiment(b, "fig14") }
func BenchmarkFig14LowSkew(b *testing.B)            { benchExperiment(b, "fig14low") }
func BenchmarkFig15Selectivity(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkTable3StepGranularity(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFig16BasicUnit(b *testing.B)          { benchExperiment(b, "fig16") }
func BenchmarkFig17BasicUnitSHJShares(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18BasicUnitPHJShares(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19LargeData(b *testing.B)          { benchExperiment(b, "fig19") }
func BenchmarkFig20Locking(b *testing.B)            { benchExperiment(b, "fig20") }

// Variant benchmarks: host wall-clock of the whole pipeline (real join +
// simulation accounting), per algorithm × scheme.

func benchJoin(b *testing.B, opt Options) {
	b.Helper()
	join := inlineJoiner(b)
	r := Gen{N: 1 << 17, Seed: 1}.Build()
	s := Gen{N: 1 << 17, Seed: 2}.Probe(r, 1.0)
	opt.Delta = 0.1
	opt.PilotItems = 1 << 13
	b.SetBytes(r.Bytes() + s.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := join(r, s, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkJoinSHJCPUOnly(b *testing.B) { benchJoin(b, Options{Algo: SHJ, Scheme: CPUOnly}) }
func BenchmarkJoinSHJGPUOnly(b *testing.B) { benchJoin(b, Options{Algo: SHJ, Scheme: GPUOnly}) }
func BenchmarkJoinSHJDD(b *testing.B)      { benchJoin(b, Options{Algo: SHJ, Scheme: DD}) }
func BenchmarkJoinSHJPL(b *testing.B)      { benchJoin(b, Options{Algo: SHJ, Scheme: PL}) }
func BenchmarkJoinPHJDD(b *testing.B)      { benchJoin(b, Options{Algo: PHJ, Scheme: DD}) }
func BenchmarkJoinPHJPL(b *testing.B)      { benchJoin(b, Options{Algo: PHJ, Scheme: PL}) }
func BenchmarkJoinPHJBasicUnit(b *testing.B) {
	benchJoin(b, Options{Algo: PHJ, Scheme: BasicUnit})
}
func BenchmarkJoinPHJCoarsePL(b *testing.B) {
	benchJoin(b, Options{Algo: PHJ, Scheme: CoarsePL})
}

// The gated shapes. Each of the next three benchmarks times a fixture whose
// simulated results are exact functions of data and options. The fixture
// is one function shared with golden_test.go, which asserts those results
// bit for bit under plain `go test`, so the invariants it carries fire in
// tier-1 and not only under -bench.

// parallelSpeedupTuples sizes both sides of the parallel-speedup join.
const parallelSpeedupTuples = 1 << 20

// parallelSpeedupShape is the 1M-tuple PHJ-PL join of
// BenchmarkParallelSpeedup. run executes it once on the given worker count
// and returns the simulated total; matches and simulated time must equal
// the first run's whatever the count. An explicit Options.Workers runs on a
// transient pool of that size, not the engine's resident one.
func parallelSpeedupShape(tb testing.TB) (run func(tb testing.TB, workers int) float64) {
	join := inlineJoiner(tb)
	r := Gen{N: parallelSpeedupTuples, Seed: 1}.Build()
	s := Gen{N: parallelSpeedupTuples, Seed: 2}.Probe(r, 1.0)
	var ref *Result
	return func(tb testing.TB, workers int) float64 {
		tb.Helper()
		res, err := join(r, s, Options{Algo: PHJ, Scheme: PL, Workers: workers, Delta: 0.05, PilotItems: 1 << 13})
		if err != nil {
			tb.Fatal(err)
		}
		if ref == nil {
			ref = res
		}
		if res.Matches == 0 || res.Matches != ref.Matches || res.TotalNS != ref.TotalNS {
			tb.Fatalf("workers=%d changed results: matches %d (want %d), simNS %v (want %v)",
				workers, res.Matches, ref.Matches, res.TotalNS, ref.TotalNS)
		}
		return res.TotalNS
	}
}

// BenchmarkParallelSpeedup measures host wall-clock of the morsel-driven
// runtime for a 1M-tuple PHJ join at 1, 2 and GOMAXPROCS workers. The
// simulated times and match counts are identical across the sub-benchmarks
// by construction; ns/op is the number that should drop on multi-core
// hosts. On a single core the workers≥2 rows are skipped rather than
// reported: they would measure nothing.
func BenchmarkParallelSpeedup(b *testing.B) {
	run := parallelSpeedupShape(b)
	seen := map[int]bool{}
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		if seen[w] {
			continue // 1- or 2-core host: avoid duplicate sub-benchmarks
		}
		seen[w] = true
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			if w > 1 && runtime.GOMAXPROCS(0) < 2 {
				b.Skipf("workers=%d on GOMAXPROCS=%d measures no speed-up: run on at least 2 cores", w, runtime.GOMAXPROCS(0))
			}
			b.SetBytes(2 * 8 * parallelSpeedupTuples)
			var simNS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simNS = run(b, w)
			}
			b.ReportMetric(simNS, "sim_ns/op")
		})
	}
}

// pipelineStreamingShape is the 3-relation pipeline shape of
// internal/plan's ordering benchmark on an engine of its own. run executes
// the streamed pipeline once; at most one intermediate is ever resident,
// so the peak resident footprint must be exactly the largest single
// intermediate.
func pipelineStreamingShape(tb testing.TB) (run func(tb testing.TB) *PipelineResult) {
	eng := NewEngine()
	tb.Cleanup(func() { eng.Close() })
	if _, err := eng.Register("build", Gen{N: 1 << 16, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.RegisterProbe("wide", "build", Gen{N: 1 << 16, Seed: 2}, 1.0); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.RegisterProbe("narrow", "build", Gen{N: 1 << 14, Seed: 3}, 0.1); err != nil {
		tb.Fatal(err)
	}
	return func(tb testing.TB) *PipelineResult {
		tb.Helper()
		pr, err := eng.JoinPipeline(context.Background(), Pipeline{
			Sources: []Source{Ref("build"), Ref("wide"), Ref("narrow")},
		}, WithDelta(0.25), WithPilotItems(1<<12))
		if err != nil {
			tb.Fatal(err)
		}
		if pr.Final.Matches == 0 || pr.PeakIntermediateBytes != maxIntermediateBytes(pr) {
			tb.Fatalf("degenerate pipeline: matches=%d peak=%d, largest intermediate %d",
				pr.Final.Matches, pr.PeakIntermediateBytes, maxIntermediateBytes(pr))
		}
		return pr
	}
}

// BenchmarkPipelineStreaming times the streamed 3-relation pipeline and
// reports its deterministic simulated time (sim_ns/op) and peak resident
// intermediate footprint (peak_bytes/op) beside the host ns/op.
func BenchmarkPipelineStreaming(b *testing.B) {
	run := pipelineStreamingShape(b)
	b.Run("streamed", func(b *testing.B) {
		var pr *PipelineResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr = run(b)
		}
		b.ReportMetric(pr.TotalNS, "sim_ns/op")
		b.ReportMetric(float64(pr.PeakIntermediateBytes), "peak_bytes/op")
	})
}

// maxIntermediateBytes is the footprint a streamed pipeline must peak at:
// the largest single intermediate (8 bytes per match of a non-final step).
func maxIntermediateBytes(pr *PipelineResult) int64 {
	var peak int64
	for _, st := range pr.Steps[:len(pr.Steps)-1] {
		if b := st.OutTuples * 8; b > peak {
			peak = b
		}
	}
	return peak
}

// spillVsResidentShape pins the cost of spilling: the same three-relation
// selectivity-1 pipeline on an unconstrained engine (every intermediate
// resident) and on one whose residency budget forces the hybrid-hash spill
// path. run executes the pipeline once on the named engine. The spill
// decomposition is an exact function of the data and the budget: the
// resident engine must spill nothing, the constrained one something, and
// the final match count must not depend on which ran.
func spillVsResidentShape(tb testing.TB) (run func(tb testing.TB, spilled bool) *PipelineResult) {
	r := Gen{N: 1 << 13, Seed: 1}.Build()
	s := Gen{N: 1 << 13, Seed: 2}.Probe(r, 1.0)
	u := Gen{N: 1 << 13, Seed: 3}.Probe(r, 1.0)

	// The spilled engine's capacity holds the two registered relations
	// plus 16 KB — not the 64 KB selectivity-1 intermediate.
	engines := map[bool]*Engine{
		false: NewEngine(),
		true:  NewEngine(CatalogCapacity(r.Bytes() + s.Bytes() + 16<<10)),
	}
	for _, eng := range engines {
		eng := eng
		tb.Cleanup(func() { eng.Close() })
		if _, err := eng.Load("r", r); err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.Load("s", s); err != nil {
			tb.Fatal(err)
		}
	}
	var refMatches int64
	return func(tb testing.TB, spilled bool) *PipelineResult {
		tb.Helper()
		pr, err := engines[spilled].JoinPipeline(context.Background(), Pipeline{
			Sources: []Source{Ref("r"), Ref("s"), Inline(u)},
		}, WithDelta(0.25), WithPilotItems(1<<10))
		if err != nil {
			tb.Fatal(err)
		}
		if (pr.SpillBytes > 0) != spilled {
			tb.Fatalf("spilled=%v run spilled %d bytes", spilled, pr.SpillBytes)
		}
		if refMatches == 0 {
			refMatches = pr.Final.Matches
		}
		if pr.Final.Matches == 0 || pr.Final.Matches != refMatches {
			tb.Fatalf("spilled=%v matches %d, the other engine found %d", spilled, pr.Final.Matches, refMatches)
		}
		return pr
	}
}

// BenchmarkSpillVsResident times the resident and the spilled run of
// spillVsResidentShape and reports, beside host ns/op, each one's
// deterministic simulated time (sim_ns/op — the spilled run carries the
// I/O surcharge) and simulated spill volume (spill_bytes/op).
func BenchmarkSpillVsResident(b *testing.B) {
	run := spillVsResidentShape(b)
	for _, v := range []struct {
		name    string
		spilled bool
	}{{"resident", false}, {"spilled", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var pr *PipelineResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr = run(b, v.spilled)
			}
			b.ReportMetric(pr.TotalNS, "sim_ns/op")
			b.ReportMetric(float64(pr.SpillBytes), "spill_bytes/op")
		})
	}
}

// Ablation benchmarks for the design tradeoffs DESIGN.md calls out.

func BenchmarkAblationDelta(b *testing.B)    { benchExperiment(b, "abl-delta") }
func BenchmarkAblationGrouping(b *testing.B) { benchExperiment(b, "abl-grouping") }
func BenchmarkAblationRadix(b *testing.B)    { benchExperiment(b, "abl-radix") }
func BenchmarkAblationPilot(b *testing.B)    { benchExperiment(b, "abl-pilot") }
