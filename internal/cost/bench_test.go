package cost

import (
	"fmt"
	"testing"
)

// benchSeries is a 4-step series alternating GPU-friendly and CPU-friendly
// steps, the shape of the build and probe series.
func benchSeries() SeriesProfile {
	return SeriesProfile{Name: "bench", Steps: []StepProfile{computeProfile(), chaseProfile(), computeProfile(), chaseProfile()}}
}

// BenchmarkOptimizePLRefined is the planner's default search over four steps
// at the engine's default δ and at apubench join_large's.
func BenchmarkOptimizePLRefined(b *testing.B) {
	for _, delta := range []float64{0.02, 0.05} {
		b.Run(fmt.Sprintf("delta=%v", delta), func(b *testing.B) {
			m, sp := testModel(), benchSeries()
			b.ReportAllocs()
			for b.Loop() {
				m.OptimizePLRefined(sp, 1<<20, delta)
			}
		})
	}
}

// BenchmarkOptimizePLFullGrid is the paper's exhaustive search at its own δ:
// 51^4 candidates (Options.FullGrid).
func BenchmarkOptimizePLFullGrid(b *testing.B) {
	m, sp := testModel(), benchSeries()
	b.ReportAllocs()
	for b.Loop() {
		m.OptimizePL(sp, 1<<20, DefaultDelta)
	}
}
