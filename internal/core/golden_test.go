package core

import (
	"fmt"
	"strconv"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/rel"
)

// The single-stream goldens. BasicUnit's passes, the external join's buffer
// rounds and the pilot run their radix n3 on one stream, chunk by chunk, so
// worker-count invariance cannot see an accounting shift there: every worker
// count shares it. These pin what those callers feed the simulated clock with
// ==, in the style of the root package's model gate; a failure prints the
// literal to paste.

// wantGolden fails unless got is bit-identical to want, printing got in the
// shortest form that round-trips.
func wantGolden(tb testing.TB, gauge string, got, want float64) {
	tb.Helper()
	if got != want {
		tb.Errorf("%s = %s, golden %s", gauge,
			strconv.FormatFloat(got, 'g', -1, 64), strconv.FormatFloat(want, 'g', -1, 64))
	}
}

// singleStreamInputs is the workload the single-stream goldens share: a
// build side whose partitions cross many chunk boundaries and a probe side
// of a different length, so BasicUnit's last chunks are ragged.
func singleStreamInputs() (r, s rel.Relation) {
	r = rel.Gen{N: 100_003, Seed: 51}.Build()
	return r, rel.Gen{N: 120_001, Seed: 52}.Probe(r, 0.9)
}

// TestGoldenBasicUnitPartition pins a PHJ under BasicUnit — whose partition
// passes interleave n1→n2→n3 per dispatched chunk — under the Basic
// allocator, the Block allocator, and Block with a two-pass radix plan.
// AllocStats totals the run's build and output arenas; a pass's chunk
// allocator reaches the clock through n3's accounting, so PartitionNS. Each
// case runs uncached, cold and warm (runColdWarm).
func TestGoldenBasicUnitPartition(t *testing.T) {
	r, s := singleStreamInputs()
	cases := []struct {
		name             string
		cfg              alloc.Config
		target           int64
		total, partition float64
		stats            alloc.Stats
		shares           []float64
	}{
		{"basic", alloc.Config{Strategy: alloc.Basic}, 0, 1.1539363919451639e+07, 2.348344947551282e+06,
			alloc.Stats{Allocs: 308084, Words: 716171, GlobalAtomics: 308084},
			[]float64{0.24999250022499325, 0.6000119996400108, 0.5000041666319447}},
		{"block", alloc.Config{}, 0, 4.2319147602326e+06, 2.263721580068376e+06,
			alloc.Stats{Allocs: 308084, Words: 716171, GlobalAtomics: 1402, LocalOps: 308084, WastedWords: 1173},
			[]float64{0.24999250022499325, 0.24999250022499325, 0.29166423613136555}},
		{"block/two-pass", alloc.Config{}, 512, 7.551651836922894e+06, 5.577088619027778e+06,
			alloc.Stats{Allocs: 308084, Words: 716171, GlobalAtomics: 1402, LocalOps: 308084, WastedWords: 1173},
			[]float64{0.2000239992800216, 0.24999250022499325, 0.29166423613136555}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := runColdWarm(t, r, s, Options{Algo: PHJ, Scheme: BasicUnit, Alloc: c.cfg, RadixTargetBytes: c.target,
				PilotItems: 4096, CPUChunk: 5000, GPUChunk: 20000, Workers: 2})
			wantGolden(t, "TotalNS", res.TotalNS, c.total)
			wantGolden(t, "PartitionNS", res.PartitionNS, c.partition)
			if res.AllocStats != c.stats {
				t.Errorf("AllocStats = %#v, golden %#v", res.AllocStats, c.stats)
			}
			if len(res.BasicUnitShares) != len(c.shares) {
				t.Fatalf("BasicUnitShares = %v, golden %v", res.BasicUnitShares, c.shares)
			}
			for i, got := range res.BasicUnitShares {
				wantGolden(t, fmt.Sprintf("BasicUnitShares[%d]", i), got, c.shares[i])
			}
		})
	}
}

// TestGoldenExternalPartition pins a join larger than the zero-copy buffer:
// its rounds partition single-stream under a DD split.
func TestGoldenExternalPartition(t *testing.T) {
	r := rel.Gen{N: 1 << 15, Seed: 21}.Build()
	s := rel.Gen{N: 1<<15 + 77, Seed: 22}.Probe(r, 1.0)
	cases := []struct {
		name             string
		cfg              alloc.Config
		partition, total float64
	}{
		{"basic", alloc.Config{Strategy: alloc.Basic}, 1.0184120711538462e+06, 1.0232454947489465e+07},
		{"block", alloc.Config{}, 986891.3211538461, 6.891921640409913e+06},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.25, PilotItems: 2048, Alloc: c.cfg, Workers: 2}
			opt.SetDefaults()
			opt.ZeroCopy.Capacity = 1 << 18
			res, err := RunExternal(r, s, opt)
			if err != nil {
				t.Fatal(err)
			}
			wantGolden(t, "PartitionNS", res.PartitionNS, c.partition)
			wantGolden(t, "TotalNS", res.TotalNS, c.total)
		})
	}
}

// TestGoldenPlanPilot pins PHJ plans' predictions, which price every pass
// with the partition profile of the pilot's single-stream pass: at the
// default 2^16-tuple sample, whose partitions grow past one chunk, under the
// Block allocator, and at a 4096-tuple sample under Basic. A profile keeps
// n3's per-tuple work, not its allocator counters, so the two partition
// estimates agree. Below 2^20 tuples the planner picks SHJ, whose plan
// carries no partition estimate.
func TestGoldenPlanPilot(t *testing.T) {
	r := rel.Gen{N: 1 << 20, Seed: 51}.Build()
	s := rel.Gen{N: 1 << 20, Seed: 52}.Probe(r, 0.9)
	cases := []struct {
		name                 string
		opt                  Options
		partition, predicted float64
	}{
		{"block/pilot=65536", Options{Scheme: PL}, 5.929428040817778e+06, 1.611171198634208e+07},
		{"basic/pilot=4096", Options{Scheme: PL, PilotItems: 4096, Alloc: alloc.Config{Strategy: alloc.Basic}}, 5.929428040817778e+06, 1.5969665234074004e+07},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := BuildPlan(r, s, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if pl.Algo != PHJ {
				t.Fatalf("plan chose %v, want PHJ", pl.Algo)
			}
			wantGolden(t, "PredictedPartitionNS", pl.PredictedPartitionNS, c.partition)
			wantGolden(t, "PredictedNS", pl.PredictedNS, c.predicted)
		})
	}
}
