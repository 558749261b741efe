package plan

import (
	"strconv"
	"testing"
)

// The planner's share of the model gate (see golden_test.go in the root
// package): the simulated totals of the shapes in bench_test.go, asserted
// with == at full float64 precision. A change that moves the model on
// purpose replaces the literal with the value the failure prints.

// wantGolden fails unless got is bit-identical to want, printing got in
// the shortest form that round-trips — the literal to paste.
func wantGolden(tb testing.TB, gauge string, got, want float64) {
	tb.Helper()
	if got != want {
		tb.Errorf("%s = %s, golden %s", gauge,
			strconv.FormatFloat(got, 'g', -1, 64), strconv.FormatFloat(want, 'g', -1, 64))
	}
}

// One literal for both temperatures: a cached plan is the plan.
func TestGoldenPlannerAmortization(t *testing.T) {
	const golden = 1.6444489506299086e+06
	run := plannerAmortizationShape(t)
	wantGolden(t, "cold sim_ns/op", run(t, false), golden)
	wantGolden(t, "warm sim_ns/op", run(t, true), golden)
}

func TestGoldenPipelineOrdering(t *testing.T) {
	run := pipelineOrderingShape(t)
	wantGolden(t, "ordered sim_ns/op", run(t, true), 3.5984222022088887e+06)
	wantGolden(t, "declared sim_ns/op", run(t, false), 5.599544137533333e+06)
}
