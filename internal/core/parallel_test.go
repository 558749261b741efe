package core

import (
	"slices"
	"strconv"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
)

// TestWorkersInvariance is the parallel runtime's contract: the worker
// count must not change anything but host wall-clock. Match counts, the
// simulated elapsed time, every phase of the breakdown and the allocator
// totals must be identical between a single worker and many, across both
// algorithms, every scheme and both ends of the skew range — and each run is
// the same uncached, cold and warm (runColdWarm).
func TestWorkersInvariance(t *testing.T) {
	type cfg struct {
		name string
		opt  Options
	}
	cases := []cfg{
		{"SHJ/CPU", Options{Algo: SHJ, Scheme: CPUOnly}},
		{"SHJ/GPU", Options{Algo: SHJ, Scheme: GPUOnly}},
		{"SHJ/OL", Options{Algo: SHJ, Scheme: OL}},
		{"SHJ/DD", Options{Algo: SHJ, Scheme: DD}},
		{"SHJ/PL", Options{Algo: SHJ, Scheme: PL}},
		{"SHJ/BasicUnit", Options{Algo: SHJ, Scheme: BasicUnit}},
		{"SHJ/DD/separate", Options{Algo: SHJ, Scheme: DD, SeparateTables: true}},
		{"SHJ/DD/discrete", Options{Algo: SHJ, Scheme: DD, Arch: Discrete}},
		{"SHJ/PL/grouped", Options{Algo: SHJ, Scheme: PL, Grouping: true}},
		{"PHJ/CPU", Options{Algo: PHJ, Scheme: CPUOnly}},
		{"PHJ/GPU", Options{Algo: PHJ, Scheme: GPUOnly}},
		{"PHJ/OL", Options{Algo: PHJ, Scheme: OL}},
		{"PHJ/DD", Options{Algo: PHJ, Scheme: DD}},
		{"PHJ/PL", Options{Algo: PHJ, Scheme: PL}},
		{"PHJ/BasicUnit", Options{Algo: PHJ, Scheme: BasicUnit}},
		{"PHJ/PL'", Options{Algo: PHJ, Scheme: CoarsePL}},
	}

	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: 30000, Dist: dist, Seed: 11}.Build()
		s := rel.Gen{N: 40000, Dist: dist, Seed: 12}.Probe(r, 0.8)
		want := rel.NaiveJoinCount(r, s)

		for _, c := range cases {
			c := c
			t.Run(c.name+"/"+dist.String(), func(t *testing.T) {
				var results [2]*Result
				for i, workers := range []int{1, 8} {
					opt := c.opt
					opt.Workers = workers
					opt.Delta = 0.1
					opt.PilotItems = 4096
					res := runColdWarm(t, r, s, opt)
					if res.Matches != want {
						t.Fatalf("workers=%d: matches %d, want %d", workers, res.Matches, want)
					}
					results[i] = res
				}
				a, b := results[0], results[1]
				if a.TotalNS != b.TotalNS {
					t.Errorf("TotalNS differs: workers=1 %.3f, workers=8 %.3f", a.TotalNS, b.TotalNS)
				}
				if a.Breakdown != b.Breakdown {
					t.Errorf("breakdown differs:\n w=1 %+v\n w=8 %+v", a.Breakdown, b.Breakdown)
				}
				if a.AllocStats != b.AllocStats {
					t.Errorf("alloc stats differ:\n w=1 %+v\n w=8 %+v", a.AllocStats, b.AllocStats)
				}
				if a.Cache != b.Cache {
					t.Errorf("cache stats differ:\n w=1 %+v\n w=8 %+v", a.Cache, b.Cache)
				}
				if len(a.Steps) != len(b.Steps) {
					t.Fatalf("step counts differ: %d vs %d", len(a.Steps), len(b.Steps))
				}
				for i := range a.Steps {
					if a.Steps[i] != b.Steps[i] {
						t.Errorf("step %d differs:\n w=1 %+v\n w=8 %+v", i, a.Steps[i], b.Steps[i])
					}
				}
			})
		}
	}
}

// TestWorkersInvarianceExternal covers the out-of-buffer path.
func TestWorkersInvarianceExternal(t *testing.T) {
	r := rel.Gen{N: 1 << 15, Seed: 21}.Build()
	s := rel.Gen{N: 1 << 15, Seed: 22}.Probe(r, 1.0)
	want := rel.NaiveJoinCount(r, s)

	var results [2]*ExternalResult
	for i, workers := range []int{1, 8} {
		opt := Options{Algo: SHJ, Scheme: PL, Delta: 0.25, PilotItems: 2048, Workers: workers}
		opt.SetDefaults()
		opt.ZeroCopy.Capacity = 1 << 18
		res, err := RunExternal(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("workers=%d: matches %d, want %d", workers, res.Matches, want)
		}
		results[i] = res
	}
	if results[0].TotalNS != results[1].TotalNS {
		t.Errorf("external TotalNS differs: %.3f vs %.3f", results[0].TotalNS, results[1].TotalNS)
	}
}

// TestWorkersDefault exercises the GOMAXPROCS default (Workers = 0) and a
// worker count far above the morsel count.
func TestWorkersDefault(t *testing.T) {
	r := rel.Gen{N: 20000, Seed: 31}.Build()
	s := rel.Gen{N: 20000, Seed: 32}.Probe(r, 1.0)
	want := rel.NaiveJoinCount(r, s)
	for _, workers := range []int{0, 64} {
		res, err := Run(r, s, Options{Algo: PHJ, Scheme: PL, Delta: 0.1, PilotItems: 4096, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("workers=%d: matches %d, want %d", workers, res.Matches, want)
		}
	}
}

// TestPartitionLeavesInputsUntouched: the first radix pass reads the
// caller's relations in place and later passes ping-pong between the run's
// own buffers, so a multi-pass PHJ must hand the caller's (possibly
// catalog-resident, shared) slices back byte-identical — never use them as
// a gather target.
func TestPartitionLeavesInputsUntouched(t *testing.T) {
	r := rel.Gen{N: 50000, Dist: rel.HighSkew, Seed: 41}.Build()
	s := rel.Gen{N: 60000, Seed: 42}.Probe(r, 0.9)
	want := rel.NaiveJoinCount(r, s)
	rk, sk := slices.Clone(r.Keys), slices.Clone(s.Keys)

	// 512 B partitions need 10 radix bits — two passes; 2 B ones need 18 —
	// three, the third gathering back into the first buffer.
	for _, c := range []struct {
		passes int
		target int64
	}{{2, 512}, {3, 2}} {
		passes, target := c.passes, c.target
		opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.1, PilotItems: 4096, Workers: 4, RadixTargetBytes: target}
		if got := radix.PlanFor(r.Len(), target).Passes(); got != passes {
			t.Fatalf("target %d B plans %d pass(es), want %d", target, got, passes)
		}
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("target %d B: matches %d, want %d", target, res.Matches, want)
		}
		if !slices.Equal(r.Keys, rk) || !slices.Equal(s.Keys, sk) {
			t.Fatalf("target %d B: the join wrote into its input relations", target)
		}
	}
}

// TestGoldenTwoPassPartition runs a PHJ-PL whose radix plan has two passes,
// so the second pass's n3 scatters a relation the first one scattered and
// the final boundaries come from the histogram. The simulated clock, the
// partition phase and the allocator totals are pinned to what the
// chain-building shard kernels produced (recorded on PR 24's parent), with
// == and at one worker and many, each with no build slot, cold and warm.
func TestGoldenTwoPassPartition(t *testing.T) {
	r := rel.Gen{N: 50000, Dist: rel.HighSkew, Seed: 41}.Build()
	s := rel.Gen{N: 60000, Seed: 42}.Probe(r, 0.9)
	want := rel.NaiveJoinCount(r, s)
	if got := radix.PlanFor(r.Len(), 512).Passes(); got != 2 {
		t.Fatalf("plan has %d pass(es), want 2", got)
	}
	for _, workers := range []int{1, 4} {
		res := runColdWarm(t, r, s, Options{Algo: PHJ, Scheme: PL, Delta: 0.1, PilotItems: 4096, Workers: workers, RadixTargetBytes: 512})
		if res.Matches != want {
			t.Fatalf("workers=%d: matches %d, want %d", workers, res.Matches, want)
		}
		if res.TotalNS != goldenTwoPassTotalNS || res.PartitionNS != goldenTwoPassPartitionNS || res.AllocStats != goldenTwoPassAlloc {
			t.Errorf("workers=%d: total %s partition %s alloc %+v\n golden: total %s partition %s alloc %+v", workers,
				strconv.FormatFloat(res.TotalNS, 'g', -1, 64), strconv.FormatFloat(res.PartitionNS, 'g', -1, 64), res.AllocStats,
				strconv.FormatFloat(goldenTwoPassTotalNS, 'g', -1, 64), strconv.FormatFloat(goldenTwoPassPartitionNS, 'g', -1, 64), goldenTwoPassAlloc)
		}
	}
}

const (
	goldenTwoPassTotalNS     = 4.751809487574654e+06
	goldenTwoPassPartitionNS = 4.044892149145299e+06
)

var goldenTwoPassAlloc = alloc.Stats{Allocs: 153985, Words: 357970, GlobalAtomics: 720, LocalOps: 153985, WastedWords: 9584}
