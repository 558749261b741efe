package core

import (
	"math"
	"slices"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

func testData(n int) (rel.Relation, rel.Relation) {
	r := rel.Gen{N: n, Seed: 101}.Build()
	s := rel.Gen{N: n, Seed: 102}.Probe(r, 1.0)
	return r, s
}

func TestOptionsValidation(t *testing.T) {
	r, s := testData(4096)
	if _, err := Run(r, s, Options{Algo: SHJ, Scheme: CoarsePL}); err == nil {
		t.Error("CoarsePL with SHJ accepted")
	}
	if _, err := Run(r, s, Options{Algo: SHJ, Scheme: PL, SeparateTables: true}); err == nil {
		t.Error("PL with separate tables accepted")
	}
	if _, err := Run(r, s, Options{Algo: SHJ, Scheme: PL, Arch: Discrete}); err == nil {
		t.Error("PL on the discrete architecture accepted (paper: infeasible)")
	}
}

// TestOptionsValidate: δ is unset (0) or within [cost.MinDelta, 1],
// PHJ-PL' needs PHJ, and a negative worker count is refused. BuildPlan
// validates too, so a δ that would hold the planner for minutes fails at
// once.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"paper delta", Options{Delta: cost.DefaultDelta}, true},
		{"delta at the floor", Options{Delta: cost.MinDelta}, true},
		{"delta one", Options{Delta: 1}, true},
		{"delta below the floor", Options{Delta: cost.MinDelta / 2}, false},
		{"delta 1e-9", Options{Delta: 1e-9}, false},
		{"negative delta", Options{Delta: -0.1}, false},
		{"delta above one", Options{Delta: 1.5}, false},
		{"NaN delta", Options{Delta: math.NaN()}, false},
		{"coarse PL with PHJ", Options{Algo: PHJ, Scheme: CoarsePL}, true},
		{"coarse PL with SHJ", Options{Algo: SHJ, Scheme: CoarsePL}, false},
		{"negative workers", Options{Workers: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.opt.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	r, s := testData(4096)
	if _, err := BuildPlan(r, s, Options{Delta: 1e-9}); err == nil {
		t.Error("BuildPlan accepted δ = 1e-9")
	}
}

func TestFixedRatiosRespected(t *testing.T) {
	r, s := testData(20000)
	opt := Options{Algo: SHJ, Scheme: DD, PilotItems: 4096}
	opt.FixedBuild = sched.Ratios{0.7}
	opt.FixedProbe = sched.Ratios{0.1, 0.2, 0.3, 0.4}
	res, err := Run(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Ratios.Build {
		if rr != 0.7 {
			t.Fatalf("fixed build ratio not applied: %v", res.Ratios.Build)
		}
	}
	want := sched.Ratios{0.1, 0.2, 0.3, 0.4}
	for i, rr := range res.Ratios.Probe {
		if rr != want[i] {
			t.Fatalf("fixed probe ratios not applied: %v", res.Ratios.Probe)
		}
	}
}

func TestSharedTableBeatsSeparate(t *testing.T) {
	// Fig. 10's direction: shared hash table wins the build under DD.
	r, s := testData(1 << 18)
	var times [2]float64
	for i, sep := range []bool{false, true} {
		opt := Options{Algo: SHJ, Scheme: DD, SeparateTables: sep, Delta: 0.1, PilotItems: 8192}
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = res.BuildNS + res.MergeNS
	}
	if times[0] >= times[1] {
		t.Errorf("shared build+merge %.2fms not better than separate %.2fms", times[0]/1e6, times[1]/1e6)
	}
}

func TestOptimizedAllocatorBeatsBasic(t *testing.T) {
	// Fig. 12's direction, double-digit improvement.
	r, s := testData(1 << 17)
	var times [2]float64
	for i, strat := range []alloc.Strategy{alloc.Basic, alloc.Block} {
		opt := Options{Algo: SHJ, Scheme: DD, Delta: 0.1, PilotItems: 8192}
		opt.Alloc = alloc.Config{Strategy: strat, BlockBytes: alloc.DefaultBlockBytes}
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = res.TotalNS
	}
	imp := (times[0] - times[1]) / times[0]
	if imp < 0.1 {
		t.Errorf("optimized allocator improvement only %.0f%% (paper: up to 36-39%%)", imp*100)
	}
}

func TestCostModelGuidesDDNearMeasuredOptimum(t *testing.T) {
	// Sec. 5.3's point: the ratio the model picks must measure within a
	// few percent of the best fixed ratio found by exhaustive measurement.
	r, s := testData(1 << 16)
	base := Options{Algo: SHJ, Scheme: DD, Delta: 0.1, PilotItems: 8192}

	chosen, err := Run(r, s, base)
	if err != nil {
		t.Fatal(err)
	}

	best := math.Inf(1)
	for ratio := 0.0; ratio <= 1.0; ratio += 0.1 {
		opt := base
		opt.FixedBuild = sched.Ratios{ratio}
		opt.FixedProbe = sched.Ratios{ratio}
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalNS < best {
			best = res.TotalNS
		}
	}
	if chosen.TotalNS > best*1.10 {
		t.Errorf("model-chosen DD time %.2fms more than 10%% above measured optimum %.2fms",
			chosen.TotalNS/1e6, best/1e6)
	}
}

func TestEstimateBelowMeasuredButClose(t *testing.T) {
	// The model excludes lock contention, so estimated ≤ measured with a
	// modest gap for SHJ (paper: <15% in most cases).
	r, s := testData(1 << 18)
	res, err := Run(r, s, Options{Algo: SHJ, Scheme: DD, Delta: 0.1, PilotItems: 8192})
	if err != nil {
		t.Fatal(err)
	}
	meas := res.BuildNS + res.ProbeNS
	if res.EstimatedNS > meas*1.05 {
		t.Errorf("estimate %.2fms above measured %.2fms", res.EstimatedNS/1e6, meas/1e6)
	}
	if res.EstimatedNS < meas*0.5 {
		t.Errorf("estimate %.2fms less than half of measured %.2fms", res.EstimatedNS/1e6, meas/1e6)
	}
}

func TestLockOverheadGrowsWithBasicAllocator(t *testing.T) {
	r, s := testData(1 << 16)
	lock := func(strat alloc.Strategy) float64 {
		opt := Options{Algo: SHJ, Scheme: DD, Delta: 0.1, PilotItems: 4096}
		opt.Alloc = alloc.Config{Strategy: strat, BlockBytes: 2048}
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.LockOverheadNS
	}
	if lock(alloc.Basic) <= lock(alloc.Block) {
		t.Error("basic allocator should show larger lock overhead")
	}
}

func TestCoarsePLHasWorseCacheBehaviour(t *testing.T) {
	// Table 3's direction: PHJ-PL' misses more and runs slower.
	r, s := testData(1 << 18)
	var miss [2]float64
	var tm [2]float64
	for i, scheme := range []Scheme{PL, CoarsePL} {
		res, err := Run(r, s, Options{Algo: PHJ, Scheme: scheme, Delta: 0.1, PilotItems: 8192})
		if err != nil {
			t.Fatal(err)
		}
		miss[i] = res.Cache.MissRatio()
		tm[i] = res.TotalNS
	}
	if miss[1] <= miss[0] {
		t.Errorf("PHJ-PL' miss ratio %.2f not above PHJ-PL %.2f", miss[1], miss[0])
	}
	if tm[1] <= tm[0] {
		t.Errorf("PHJ-PL' time %.2fms not above PHJ-PL %.2fms", tm[1]/1e6, tm[0]/1e6)
	}
}

func TestZeroCopyBufferReleasedBetweenRuns(t *testing.T) {
	r, s := testData(20000)
	opt := Options{Algo: SHJ, Scheme: DD, PilotItems: 4096}
	opt.SetDefaults()
	for i := 0; i < 3; i++ {
		if _, err := Run(r, s, opt); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if opt.ZeroCopy.Used() != 0 {
		t.Fatalf("zero-copy buffer leaked %d bytes", opt.ZeroCopy.Used())
	}
}

func TestStepTimingsRecorded(t *testing.T) {
	r, s := testData(20000)
	res, err := Run(r, s, Options{Algo: PHJ, Scheme: DD, Delta: 0.25, PilotItems: 4096})
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, st := range res.Steps {
		phases[st.Phase]++
	}
	if phases["build"] != 4 || phases["probe"] != 4 {
		t.Fatalf("step timings incomplete: %v", phases)
	}
	if phases["partition"] < 3 {
		t.Fatalf("partition step timings missing: %v", phases)
	}
}

func TestGroupingPreservesResults(t *testing.T) {
	r, s := testData(1 << 16)
	want := rel.NaiveJoinCount(r, s)
	for _, algo := range []Algo{SHJ, PHJ} {
		res, err := Run(r, s, Options{Algo: algo, Scheme: PL, Grouping: true, Groups: 16, Delta: 0.25, PilotItems: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Errorf("%v grouped: matches %d want %d", algo, res.Matches, want)
		}
	}
}

func TestMaterializeOffStillCounts(t *testing.T) {
	r, s := testData(20000)
	want := rel.NaiveJoinCount(r, s)
	res, err := Run(r, s, Options{Algo: SHJ, Scheme: DD, CountOnly: true, PilotItems: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("matches %d want %d without materialization", res.Matches, want)
	}
}

func TestMonteCarloPhaseShape(t *testing.T) {
	r, s := testData(1 << 15)
	opt := Options{Algo: SHJ, Scheme: PL, Delta: 0.1, PilotItems: 4096}
	samples, ours, err := MonteCarloPhase(r, s, opt, "build", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 100 {
		t.Fatalf("samples %d", len(samples))
	}
	// "Ours" must land at the far left of the CDF (paper Fig. 9).
	if ours > samples[len(samples)/10] {
		t.Errorf("model choice %.2fms worse than the 10th percentile %.2fms", ours/1e6, samples[len(samples)/10]/1e6)
	}
	if _, _, err := MonteCarloPhase(r, s, opt, "bogus", 10, 1); err == nil {
		t.Error("bogus phase accepted")
	}
}

// TestEmptySide: a join with an empty side, either one, runs under every
// algorithm and scheme and matches nothing. The pilot then profiles nothing,
// so the searching schemes (OL on a shared table, PL, PL') have no step to
// search: they divide every step as DD does, and report DD's times and
// ratios under their own labels.
func TestEmptySide(t *testing.T) {
	r, _ := testData(1000)
	schemes := []Scheme{CPUOnly, GPUOnly, DD, OL, PL, BasicUnit, CoarsePL}
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range schemes {
			if scheme == CoarsePL && algo != PHJ {
				continue
			}
			for _, side := range []string{"build", "probe"} {
				a, b := r, rel.Relation{}
				if side == "build" {
					a, b = b, a
				}
				opt := Options{Algo: algo, Scheme: scheme, Workers: 1}
				res, err := Run(a, b, opt)
				if err != nil {
					t.Errorf("%s-%s, empty %s side: %v", algo, scheme, side, err)
					continue
				}
				if res.Matches != 0 || res.Algo != algo || res.Scheme != scheme {
					t.Errorf("%s-%s, empty %s side: %d matches under %s-%s, want 0 under its own labels", algo, scheme, side, res.Matches, res.Algo, res.Scheme)
				}
				if scheme != OL && scheme != PL {
					continue
				}
				opt.Scheme = DD
				dd, err := Run(a, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalNS != dd.TotalNS || !slices.Equal(res.Ratios.Build, dd.Ratios.Build) || !slices.Equal(res.Ratios.Probe, dd.Ratios.Probe) {
					t.Errorf("%s-%s, empty %s side: %v ns at ratios %v / %v, want DD's %v ns at %v / %v", algo, scheme, side,
						res.TotalNS, res.Ratios.Build, res.Ratios.Probe, dd.TotalNS, dd.Ratios.Build, dd.Ratios.Probe)
				}
			}
		}
	}
}
