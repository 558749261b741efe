package apujoin

import (
	"fmt"
	"strconv"
	"testing"
)

// The model gate. The simulated clock is an exact function of data and
// options, so the gauges of the gated shapes in bench_test.go are asserted
// with == at full float64 precision: any drift in the cost model, the
// device constants, the planner or the spill decomposition fails here, on
// every platform, at every worker count. A change that moves the model on
// purpose replaces the literal with the value the failure prints, in the
// same commit, and says why. internal/service and internal/plan carry their
// shapes' goldens the same way; internal/exp pins the paper's tables.

// wantGolden fails unless got is bit-identical to want, printing got in
// the shortest form that round-trips — the literal to paste.
func wantGolden(tb testing.TB, gauge string, got, want float64) {
	tb.Helper()
	if got != want {
		tb.Errorf("%s = %s, golden %s", gauge,
			strconv.FormatFloat(got, 'g', -1, 64), strconv.FormatFloat(want, 'g', -1, 64))
	}
}

func TestGoldenParallelSpeedup(t *testing.T) {
	run := parallelSpeedupShape(t)
	for _, workers := range []int{1, 2} {
		wantGolden(t, fmt.Sprintf("workers=%d sim_ns/op", workers), run(t, workers), 3.0140635094110988e+07)
	}
}

func TestGoldenPipelineStreaming(t *testing.T) {
	pr := pipelineStreamingShape(t)(t)
	wantGolden(t, "streamed sim_ns/op", pr.TotalNS, 3.5984222022088887e+06)
	wantGolden(t, "streamed peak_bytes/op", float64(pr.PeakIntermediateBytes), 12808)
}

func TestGoldenSpillVsResident(t *testing.T) {
	run := spillVsResidentShape(t)
	resident, spilled := run(t, false), run(t, true)
	wantGolden(t, "resident sim_ns/op", resident.TotalNS, 912251.0090488888)
	wantGolden(t, "resident spill_bytes/op", float64(resident.SpillBytes), 0)
	wantGolden(t, "spilled sim_ns/op", spilled.TotalNS, 2.6987231614755555e+06)
	wantGolden(t, "spilled spill_bytes/op", float64(spilled.SpillBytes), 147792)
}
