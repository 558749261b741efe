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
	r := Gen{N: 1 << 17, Seed: 1}.Build()
	s := Gen{N: 1 << 17, Seed: 2}.Probe(r, 1.0)
	opt.Delta = 0.1
	opt.PilotItems = 1 << 13
	b.SetBytes(r.Bytes() + s.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Join(r, s, opt)
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

// BenchmarkParallelSpeedup measures host wall-clock of the morsel-driven
// runtime for a 1M-tuple PHJ join at 1, 2 and GOMAXPROCS workers. The
// simulated times and match counts are identical across the sub-benchmarks
// by construction; ns/op is the number that should drop on multi-core
// hosts, and its trajectory is what BENCH_*.json tracks from this PR on.
// On a single core the workers≥2 rows are skipped rather than reported: the
// committed baseline has them, so `make bench-check` then fails on the
// missing row instead of gating a number that measures nothing.
func BenchmarkParallelSpeedup(b *testing.B) {
	r := Gen{N: 1 << 20, Seed: 1}.Build()
	s := Gen{N: 1 << 20, Seed: 2}.Probe(r, 1.0)
	workerSets := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var refMatches int64
	var refSimNS float64
	for _, w := range workerSets {
		if seen[w] {
			continue // 1- or 2-core host: avoid duplicate sub-benchmarks
		}
		seen[w] = true
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			if w > 1 && runtime.GOMAXPROCS(0) < 2 {
				b.Skipf("workers=%d on GOMAXPROCS=%d measures no speed-up: run on at least 2 cores", w, runtime.GOMAXPROCS(0))
			}
			opt := Options{Algo: PHJ, Scheme: PL, Workers: w, Delta: 0.05, PilotItems: 1 << 13}
			b.SetBytes(r.Bytes() + s.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Join(r, s, opt)
				if err != nil {
					b.Fatal(err)
				}
				if refMatches == 0 {
					refMatches, refSimNS = res.Matches, res.TotalNS
				} else if res.Matches != refMatches || res.TotalNS != refSimNS {
					b.Fatalf("workers=%d changed results: matches %d (want %d), simNS %.0f (want %.0f)",
						w, res.Matches, refMatches, res.TotalNS, refSimNS)
				}
			}
			// Deterministic simulated time per join: the machine-independent
			// metric the CI benchmark-regression gate diffs.
			b.ReportMetric(refSimNS, "sim_ns/op")
		})
	}
}

// BenchmarkPipelineStreaming runs the 3-relation pipeline shape of
// internal/plan's ordering benchmark and reports the deterministic
// simulated time (sim_ns/op) and the peak resident intermediate footprint
// (peak_bytes/op — exactly the largest single intermediate, since at most
// one is ever resident). Both are machine-independent; the CI
// benchmark-regression gate diffs them, with zero tolerance on
// peak_bytes/op, so the streamed hand-off's footprint cannot silently grow.
func BenchmarkPipelineStreaming(b *testing.B) {
	eng := NewEngine()
	defer eng.Close()
	if _, err := eng.Register("build", Gen{N: 1 << 16, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RegisterProbe("wide", "build", Gen{N: 1 << 16, Seed: 2}, 1.0); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RegisterProbe("narrow", "build", Gen{N: 1 << 14, Seed: 3}, 0.1); err != nil {
		b.Fatal(err)
	}
	opts := []JoinOption{WithDelta(0.25), WithPilotItems(1 << 12)}

	b.Run("streamed", func(b *testing.B) {
		var pr *PipelineResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			pr, err = eng.JoinPipeline(context.Background(), Pipeline{
				Sources: []Source{Ref("build"), Ref("wide"), Ref("narrow")},
			}, opts...)
			if err != nil {
				b.Fatal(err)
			}
		}
		if pr.Final.Matches == 0 || pr.PeakIntermediateBytes != maxIntermediateBytes(pr) {
			b.Fatalf("degenerate pipeline: matches=%d peak=%d, largest intermediate %d",
				pr.Final.Matches, pr.PeakIntermediateBytes, maxIntermediateBytes(pr))
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

// BenchmarkSpillVsResident pins the cost of spilling: the same
// three-relation selectivity-1 pipeline runs once unconstrained (every
// intermediate resident) and once under a residency budget that forces
// the hybrid-hash spill path. Both report the deterministic simulated
// time (sim_ns/op) and the simulated spill volume (spill_bytes/op — zero
// for the resident run). The CI regression gate diffs spill_bytes/op with
// zero tolerance: the spill decomposition is an exact function of the
// data and the budget, so the volume must never drift; sim_ns/op gates at
// the standard tolerance and keeps the spilled run's I/O surcharge from
// silently growing.
func BenchmarkSpillVsResident(b *testing.B) {
	r := Gen{N: 1 << 13, Seed: 1}.Build()
	s := Gen{N: 1 << 13, Seed: 2}.Probe(r, 1.0)
	u := Gen{N: 1 << 13, Seed: 3}.Probe(r, 1.0)
	opts := []JoinOption{WithDelta(0.25), WithPilotItems(1 << 10)}

	// The spilled engine's capacity holds the two registered relations
	// plus 16 KB — not the 64 KB selectivity-1 intermediate.
	caps := map[string]int64{"resident": 0, "spilled": r.Bytes() + s.Bytes() + 16<<10}
	matches := make(map[string]int64)
	spills := make(map[string]int64)
	for _, name := range []string{"resident", "spilled"} {
		var eng *Engine
		if caps[name] > 0 {
			eng = NewEngine(CatalogCapacity(caps[name]))
		} else {
			eng = NewEngine()
		}
		if _, err := eng.Load("r", r); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Load("s", s); err != nil {
			b.Fatal(err)
		}
		name := name
		b.Run(name, func(b *testing.B) {
			var pr *PipelineResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				pr, err = eng.JoinPipeline(context.Background(), Pipeline{
					Sources: []Source{Ref("r"), Ref("s"), Inline(u)},
				}, opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			matches[name] = pr.Final.Matches
			spills[name] = pr.SpillBytes
			b.ReportMetric(pr.TotalNS, "sim_ns/op")
			b.ReportMetric(float64(pr.SpillBytes), "spill_bytes/op")
		})
		eng.Close()
	}
	if spills["resident"] != 0 {
		b.Fatalf("unconstrained run spilled %d bytes", spills["resident"])
	}
	if spills["spilled"] == 0 {
		b.Fatal("constrained run did not spill")
	}
	if matches["resident"] != matches["spilled"] {
		b.Fatalf("spilled matches %d != resident matches %d", matches["spilled"], matches["resident"])
	}
}

// Ablation benchmarks for the design tradeoffs DESIGN.md calls out.

func BenchmarkAblationDelta(b *testing.B)    { benchExperiment(b, "abl-delta") }
func BenchmarkAblationGrouping(b *testing.B) { benchExperiment(b, "abl-grouping") }
func BenchmarkAblationRadix(b *testing.B)    { benchExperiment(b, "abl-radix") }
func BenchmarkAblationPilot(b *testing.B)    { benchExperiment(b, "abl-pilot") }
