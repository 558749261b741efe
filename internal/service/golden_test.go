package service

import (
	"fmt"
	"strconv"
	"testing"

	"apujoin/internal/shard"
)

// The service layer's share of the model gate (see golden_test.go in the
// root package): the simulated totals of the shapes in bench_test.go,
// asserted with == at full float64 precision. A change that moves the
// model on purpose replaces the literal with the value the failure prints.

// wantGolden fails unless got is bit-identical to want, printing got in
// the shortest form that round-trips — the literal to paste.
func wantGolden(tb testing.TB, gauge string, got, want float64) {
	tb.Helper()
	if got != want {
		tb.Errorf("%s = %s, golden %s", gauge,
			strconv.FormatFloat(got, 'g', -1, 64), strconv.FormatFloat(want, 'g', -1, 64))
	}
}

// Four queries fill the shape's four admission slots, so the concurrency
// invariant inside the fixture compares queries that really ran together.
func TestGoldenServiceThroughput(t *testing.T) {
	wantGolden(t, "sim_ns/op", serviceThroughputShape(t)(t, 4), 3.8996559210968046e+06)
}

// One literal for both variants: by handle or regenerated inline, it is the
// identical join.
func TestGoldenCatalogReuse(t *testing.T) {
	const golden = 1.6444489506299086e+06
	wantGolden(t, "catalog sim_ns/op", catalogReuseShape(t, false)(t), golden)
	wantGolden(t, "inline-regen sim_ns/op", catalogReuseShape(t, true)(t), golden)
}

// One literal for both shard counts: every count >= 1 is the same engine.
func TestGoldenShardedScaleout(t *testing.T) {
	const golden = 4.646330552237265e+06
	for _, shards := range []int{1, shard.Partitions} {
		wantGolden(t, fmt.Sprintf("shards=%d sim_ns/op", shards), shardedScaleoutShape(t, shards)(t), golden)
	}
}
