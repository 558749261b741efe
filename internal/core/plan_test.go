package core

import (
	"reflect"
	"sync"
	"testing"

	"apujoin/internal/rel"
)

func planTestData(t testing.TB) (rel.Relation, rel.Relation) {
	t.Helper()
	r := rel.Gen{N: 1 << 15, Seed: 7}.Build()
	s := rel.Gen{N: 1 << 15, Seed: 8}.Probe(r, 0.8)
	return r, s
}

func planTestOptions() Options {
	return Options{Delta: 0.1, PilotItems: 1 << 12}
}

// candidatePlan prices one candidate, as BuildPlan does, on a scratch of its
// own, and returns it as a plan; opt has its defaults set.
func candidatePlan(r, s rel.Relation, opt Options, algo Algo, scheme Scheme, prof profiles) *Plan {
	sc := planScratches.New().(*planScratch)
	sc.model.CPU, sc.model.GPU = opt.CPU, opt.GPU
	pl := new(Plan)
	sc.price(pl, r, s, opt, algo, scheme, prof)
	return pl
}

// TestBuildPlanDeterminism: the same workload always yields the same plan,
// field for field — the planner has no hidden randomness or map-order
// dependence.
func TestBuildPlanDeterminism(t *testing.T) {
	r, s := planTestData(t)
	p1, err := BuildPlan(r, s, planTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(r, s, planTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("plans differ across builds:\n%+v\nvs\n%+v", p1, p2)
	}
	if p1.PredictedNS <= 0 {
		t.Fatalf("plan has no prediction: %+v", p1)
	}
}

// TestBuildPlanPicksCheapest: the returned plan carries the minimum
// predicted time over every candidate the planner enumerates.
func TestBuildPlanPicksCheapest(t *testing.T) {
	r, s := planTestData(t)
	opt := planTestOptions()
	best, err := BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}

	popt := opt
	popt.SetDefaults()
	pilotOpt := popt
	pilotOpt.Algo = PHJ
	prof := runPilot(r, s, pilotOpt)
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range planSchemes {
			if !autoScheme(algo, scheme, popt) {
				continue
			}
			cand := candidatePlan(r, s, popt, algo, scheme, prof)
			if cand.PredictedNS < best.PredictedNS {
				t.Errorf("candidate %s-%s predicted %.0f ns beats chosen %s-%s at %.0f ns",
					algo, scheme, cand.PredictedNS, best.Algo, best.Scheme, best.PredictedNS)
			}
		}
	}
}

// TestPlanInjection: a run with an injected plan is correct (exact match
// count), uses the plan's ratios, and is bit-identical run to run.
func TestPlanInjection(t *testing.T) {
	r, s := planTestData(t)
	opt := planTestOptions()
	pl, err := BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.Plan = pl
	res1, err := Run(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := rel.NaiveJoinCount(r, s); res1.Matches != want {
		t.Fatalf("planned run: %d matches, want %d", res1.Matches, want)
	}
	if res1.Algo != pl.Algo || res1.Scheme != pl.Scheme {
		t.Fatalf("planned run executed %s-%s, plan says %s-%s",
			res1.Algo, res1.Scheme, pl.Algo, pl.Scheme)
	}
	if len(pl.BuildRatios) > 0 && !reflect.DeepEqual(res1.Ratios.Build, pl.BuildRatios) {
		t.Fatalf("build ratios %v differ from plan %v", res1.Ratios.Build, pl.BuildRatios)
	}
	if len(pl.ProbeRatios) > 0 && !reflect.DeepEqual(res1.Ratios.Probe, pl.ProbeRatios) {
		t.Fatalf("probe ratios %v differ from plan %v", res1.Ratios.Probe, pl.ProbeRatios)
	}
	if pl.Algo == PHJ && len(pl.PartitionRatios) > 0 {
		for _, pr := range res1.Ratios.Partition {
			if !reflect.DeepEqual(pr, pl.PartitionRatios) {
				t.Fatalf("partition ratios %v differ from plan %v", pr, pl.PartitionRatios)
			}
		}
	}

	res2, err := Run(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Matches != res2.Matches || res1.TotalNS != res2.TotalNS ||
		res1.EstimatedNS != res2.EstimatedNS {
		t.Fatalf("planned runs not bit-identical: %v/%v vs %v/%v",
			res1.Matches, res1.TotalNS, res2.Matches, res2.TotalNS)
	}
}

// TestBuildPlanSeparateTables: with separate per-device tables (and on the
// discrete architecture, which forces them) the planner must never pick
// PL — it is infeasible there and Run rejects it.
func TestBuildPlanSeparateTables(t *testing.T) {
	r, s := planTestData(t)
	for _, opt := range []Options{
		{Delta: 0.1, PilotItems: 1 << 12, SeparateTables: true},
		{Delta: 0.1, PilotItems: 1 << 12, Arch: Discrete},
	} {
		pl, err := BuildPlan(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Scheme == PL {
			t.Fatalf("planner chose PL with separate tables (arch %s)", opt.Arch)
		}
		opt.Plan = pl
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatalf("planned run under %+v: %v", pl, err)
		}
		if want := rel.NaiveJoinCount(r, s); res.Matches != want {
			t.Fatalf("planned run: %d matches, want %d", res.Matches, want)
		}
	}
}

// TestBuildPlanEmptyRelation: planning an empty workload is an error, not
// a nil-profile plan.
func TestBuildPlanEmptyRelation(t *testing.T) {
	r := rel.Gen{N: 1 << 10, Seed: 1}.Build()
	if _, err := BuildPlan(rel.Relation{}, r, planTestOptions()); err == nil {
		t.Fatal("no error planning an empty build relation")
	}
	if _, err := BuildPlan(r, rel.Relation{}, planTestOptions()); err == nil {
		t.Fatal("no error planning an empty probe relation")
	}
}

// TestStaticGeometryMatchesTables: the bucket count staticEnv prices with —
// the planner's, the Monte Carlo driver's and the runner's residency
// estimate — is the bucket count of the table the run builds, whose
// constructors round on their own: |R| = 1, |R| below the radix fan-out, a
// non-power-of-two |R| and join_large's 2^20, under both algorithms.
func TestStaticGeometryMatchesTables(t *testing.T) {
	s := rel.Gen{N: 1, Seed: 2}.Build()
	for _, n := range []int{1, 40, 100_003, 1 << 20} {
		r := rel.Gen{N: n, Seed: 1}.Build()
		for _, algo := range []Algo{SHJ, PHJ} {
			opt := Options{Algo: algo}
			opt.SetDefaults()
			rn := newRunner(r, s, opt)
			rn.makeTables()
			built := len(rn.table.Count) // one count header per bucket
			if rn.geo.nBuckets != built || rn.env.tableBytes != estimateTableBytes(n, built) {
				t.Errorf("%s |R|=%d: staticEnv prices %d buckets (%d table bytes), the run builds %d (%d)",
					algo, n, rn.geo.nBuckets, rn.env.tableBytes, built, estimateTableBytes(n, built))
			}
			if algo == PHJ && rn.geo.parts != rn.geo.plan.Partitions() {
				t.Errorf("PHJ |R|=%d: %d partitions against a plan of %d", n, rn.geo.parts, rn.geo.plan.Partitions())
			}
			rn.release()
		}
	}
}

// TestConcurrentPlansEqualSerial: plans made concurrently, each on whichever
// pooled planning scratch its goroutine draws, equal plans of the same
// shapes made one after another — so no scratch state leaks from one plan
// into the next and no winner keeps a ratio vector the scratch reuses. The
// shapes cover SHJ and PHJ winners (4 096, 16 384 and 2^19 tuples a side),
// δ 0.02 and 0.05, the full grid, separate tables and the discrete
// architecture; the goroutines take them in different orders and alternate
// BuildPlan with BuildPlanKept over a pilot kept for the build side, and
// the plans are compared only once every goroutine has finished.
func TestConcurrentPlansEqualSerial(t *testing.T) {
	type shape struct {
		r, s rel.Relation
		opt  Options
	}
	var shapes []shape
	var kept []*Pilot
	for i, n := range []int{1 << 12, 1 << 14, 1 << 19} {
		r := rel.Gen{N: n, Seed: int64(1 + 2*i)}.Build()
		s := rel.Gen{N: n, Seed: int64(2 + 2*i)}.Probe(r, 1.0)
		for _, opt := range []Options{{}, {Delta: 0.05}, {FullGrid: true}, {SeparateTables: true}, {Arch: Discrete}} {
			opt.PilotItems = 1 << 12
			shapes = append(shapes, shape{r, s, opt})
			_, p, err := BuildPlanKept(r, s, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, p)
		}
	}
	defer func() {
		for _, p := range kept {
			p.Release()
		}
	}()
	serial := make([]*Plan, len(shapes))
	algos := map[Algo]bool{}
	for i, sh := range shapes {
		var err error
		if serial[i], err = BuildPlan(sh.r, sh.s, sh.opt); err != nil {
			t.Fatal(err)
		}
		algos[serial[i].Algo] = true
	}
	if !algos[SHJ] || !algos[PHJ] {
		t.Fatalf("the shapes' plans choose %v: want both algorithms", algos)
	}

	const goroutines, rounds = 4, 2
	shapeOf := func(g, k int) int { // even goroutines ascend, odd ones descend
		i := (4*g + k) % len(shapes)
		if g%2 == 1 {
			i = len(shapes) - 1 - i
		}
		return i
	}
	got := make([][]*Plan, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		got[g] = make([]*Plan, rounds*len(shapes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range got[g] {
				i := shapeOf(g, k)
				sh := shapes[i]
				var err error
				if k%2 == g%2 {
					got[g][k], err = BuildPlan(sh.r, sh.s, sh.opt)
				} else {
					got[g][k], _, err = BuildPlanKept(sh.r, sh.s, sh.opt, kept[i])
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for k, pl := range got[g] {
			if i := shapeOf(g, k); !reflect.DeepEqual(pl, serial[i]) {
				t.Errorf("goroutine %d, plan %d (shape %d, %+v): %+v, the serial plan %+v", g, k, i, shapes[i].opt, pl, serial[i])
			}
		}
	}
}
