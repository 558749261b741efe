package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// The per-leaf ratio searches the planner ran before the cost model's became
// table-driven, every candidate priced through EstimateNS — the same bodies
// internal/cost's reference_test.go holds, repeated here because a test
// cannot import another package's test files.

func refGrid(delta float64) []float64 {
	if delta <= 0 || delta > 1 {
		delta = cost.DefaultDelta
	}
	var vs []float64
	for v := 0.0; v < 1.0+1e-9; v += delta {
		if v > 1 {
			v = 1
		}
		vs = append(vs, v)
	}
	if vs[len(vs)-1] < 1 {
		vs = append(vs, 1)
	}
	return vs
}

func refSearchPL(m *cost.Model, sp cost.SeriesProfile, items int, delta float64) (sched.Ratios, float64) {
	vs := refGrid(delta)
	n := len(sp.Steps)
	cur := make(sched.Ratios, n)
	best := make(sched.Ratios, n)
	bestT := math.Inf(1)
	var rec func(step int)
	rec = func(step int) {
		if step == n {
			if t := m.EstimateNS(sp, items, cur); t < bestT {
				bestT = t
				copy(best, cur)
			}
			return
		}
		for _, v := range vs {
			cur[step] = v
			rec(step + 1)
		}
	}
	rec(0)
	return best, bestT
}

func refSearchRefined(m *cost.Model, sp cost.SeriesProfile, items int, delta float64) (sched.Ratios, float64) {
	best, bestT := refSearchPL(m, sp, items, math.Max(0.1, delta))
	vs := refGrid(delta)
	improved := true
	for iter := 0; improved && iter < 32; iter++ {
		improved = false
		for step := range best {
			orig := best[step]
			for _, v := range vs {
				if v == orig {
					continue
				}
				best[step] = v
				if t := m.EstimateNS(sp, items, best); t < bestT {
					bestT = t
					orig = v
					improved = true
				} else {
					best[step] = orig
				}
			}
			best[step] = orig
		}
	}
	return best, bestT
}

func refSearchDD(m *cost.Model, sp cost.SeriesProfile, items int, delta float64) (float64, float64) {
	bestR, bestT := 0.0, math.Inf(1)
	for _, v := range refGrid(delta) {
		if t := m.EstimateNS(sp, items, sched.Uniform(v, len(sp.Steps))); t < bestT {
			bestT = t
			bestR = v
		}
	}
	return bestR, bestT
}

// refSchemeRatios is schemeRatios with the searching schemes sent to the
// reference.
func refSchemeRatios(m *cost.Model, opt Options, prof cost.SeriesProfile, items, steps int) (sched.Ratios, float64) {
	switch {
	case opt.Scheme == DD:
		r, est := refSearchDD(m, prof, items, opt.Delta)
		return sched.Uniform(r, steps), est
	case opt.Scheme != PL && opt.Scheme != CoarsePL:
		return schemeRatios(m, opt, prof, items, make(sched.Ratios, steps))
	case opt.FullGrid:
		return refSearchPL(m, prof, items, opt.Delta)
	}
	return refSearchRefined(m, prof, items, opt.Delta)
}

// buildPlanOverReference is BuildPlan with the reference searches swapped in.
func buildPlanOverReference(t testing.TB, r, s rel.Relation, opt Options) *Plan {
	t.Helper()
	ratios, dd := planRatios, planDD
	planRatios = func(m *cost.Model, opt Options, prof cost.SeriesProfile, items int, dst sched.Ratios) (sched.Ratios, float64) {
		r, est := refSchemeRatios(m, opt, prof, items, len(dst))
		return dst[:copy(dst, r)], est
	}
	planDD = refSearchDD
	defer func() { planRatios, planDD = ratios, dd }()
	p, err := BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildPlanEqualsReferenceSearch: the plan — algorithm, scheme, every
// ratio, every predicted time, bit for bit — is the one the per-leaf search
// chose, on the plan tests' shapes and on the 192 fingerprints apubench's
// plan_cold workload cycles through (4 096 × (4 096 + 16·i) tuples at the
// default options). A plan that differs means the search is wrong: the
// simulated clock of every auto-planned join hangs off these ratios.
func TestBuildPlanEqualsReferenceSearch(t *testing.T) {
	check := func(name string, r, s rel.Relation, opt Options) {
		t.Helper()
		got, err := BuildPlan(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := buildPlanOverReference(t, r, s, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: BuildPlan chose\n%+v\nthe reference search\n%+v", name, got, want)
		}
	}

	r, s := planTestData(t)
	check("plan test data", r, s, planTestOptions())
	for name, mod := range map[string]func(*Options){
		"full grid":       func(o *Options) { o.FullGrid = true },
		"δ=0.05":          func(o *Options) { o.Delta = 0.05 },
		"separate tables": func(o *Options) { o.SeparateTables = true },
	} {
		opt := planTestOptions()
		mod(&opt)
		check(name, r, s, opt)
	}

	// The reference costs 40 ms a plan (and the race detector has nothing to
	// find in single-goroutine float arithmetic): -short and race builds
	// take every eighth fingerprint.
	stride := 1
	if testing.Short() || alloc.PoisonOnPut {
		stride = 8
	}
	build := rel.Gen{N: 4096, Seed: 1}.Build()
	for i := 0; i < 192; i += stride {
		probe := rel.Gen{N: 4096 + 16*i, Seed: int64(2 + i)}.Probe(build, 1.0)
		check("plan_cold fingerprint", build, probe, Options{})
	}
}

// planColdShape is apubench's plan_cold workload: a 4 096-tuple build side
// and probe sides of 4 096 + 16·k tuples, each a plan-cache miss.
func planColdShape(probes int) (rel.Relation, []rel.Relation) {
	r := rel.Gen{N: 4096, Seed: 1}.Build()
	s := make([]rel.Relation, probes)
	for k := range s {
		s[k] = rel.Gen{N: 4096 + 16*k, Seed: int64(2 + k)}.Probe(r, 1.0)
	}
	return r, s
}

// BenchmarkBuildPlan is one cold plan at plan_cold's shape at the default
// options (δ=0.02): the pilot, eleven candidates, six refined searches —
// what every plan-cache miss costs. cold runs the whole pilot (BuildPlan);
// kept-pilot probes the pilot a first plan kept for the build side
// (BuildPlanKept), as a registered build side's plans do. Each row first
// plans another shape — 2^19 tuples a side at δ=0.05, a PHJ-PL plan — then
// each of plan_cold's and the other shape again, all on its goroutine's
// pooled scratch, and fails if a plan differs from one made on a fresh
// scratch: whatever one plan leaves in the scratch must not reach the next.
func BenchmarkBuildPlan(b *testing.B) {
	r, s := planColdShape(8)
	fresh := func(r, s rel.Relation, opt Options) *Plan {
		pl, _, err := planScratches.New().(*planScratch).plan(r, s, opt, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		return pl
	}
	want := make([]*Plan, len(s))
	for k := range s {
		want[k] = fresh(r, s[k], Options{})
	}
	big := rel.Gen{N: 1 << 19, Seed: 3}.Build()
	bigProbe := rel.Gen{N: 1 << 19, Seed: 4}.Probe(big, 1.0)
	bigOpt := Options{Delta: 0.05}
	wantBig := fresh(big, bigProbe, bigOpt)
	check := func(b *testing.B, plan func(s rel.Relation) (*Plan, error)) {
		other := func() {
			if pl, err := BuildPlan(big, bigProbe, bigOpt); err != nil || !reflect.DeepEqual(pl, wantBig) {
				b.Fatalf("the other shape's plan: err %v, equal to the plan of a fresh scratch %v", err, reflect.DeepEqual(pl, wantBig))
			}
		}
		other()
		for k := range s {
			if pl, err := plan(s[k]); err != nil || !reflect.DeepEqual(pl, want[k]) {
				b.Fatalf("plan %d after another shape's: err %v, equal to the plan of a fresh scratch %v", k, err, reflect.DeepEqual(pl, want[k]))
			}
		}
		other()
	}
	b.Run("cold", func(b *testing.B) {
		check(b, func(s rel.Relation) (*Plan, error) { return BuildPlan(r, s, Options{}) })
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := BuildPlan(r, s[i%len(s)], Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kept-pilot", func(b *testing.B) {
		_, kept, err := BuildPlanKept(r, s[0], Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer kept.Release()
		check(b, func(s rel.Relation) (*Plan, error) {
			pl, p, err := BuildPlanKept(r, s, Options{}, kept)
			if err == nil && p != kept {
				err = fmt.Errorf("the plan's pilot %p is not the kept one %p", p, kept)
			}
			return pl, err
		})
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, p, err := BuildPlanKept(r, s[i%len(s)], Options{}, kept); err != nil || p != kept {
				b.Fatalf("plan %d over the kept pilot: err %v, pilot %p (kept %p)", i, err, p, kept)
			}
		}
	})
}

// TestBuildPlanAllocations bounds what BenchmarkBuildPlan's plans allocate:
// a cold plan its pilot's profiles, and the plan it returns with its ratio
// vectors — the pilot's table and arena are its pooled runner's, its ratios
// shared read-only vectors, and the candidates are priced on a pooled
// planning scratch, whose model, searches, environment and ratio buffers
// persist from plan to plan; a plan over a kept pilot less, since no build
// half runs. The collector is off so that the slab recycler keeps what the
// warm-up put back.
func TestBuildPlanAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops pooled objects at random; the counts hold in plain builds")
	}
	const cold, keptPilot = 6, 4
	r, s := planColdShape(1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, kept, err := BuildPlanKept(r, s[0], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Release()
	for _, c := range []struct {
		name    string
		ceiling float64
		plan    func() (*Plan, error)
	}{
		{"cold", cold, func() (*Plan, error) { return BuildPlan(r, s[0], Options{}) }},
		{"kept-pilot", keptPilot, func() (*Plan, error) {
			pl, _, err := BuildPlanKept(r, s[0], Options{}, kept)
			return pl, err
		}},
	} {
		plan := func() {
			if _, err := c.plan(); err != nil {
				t.Fatal(err)
			}
		}
		plan()
		n := testing.AllocsPerRun(10, plan)
		if n > c.ceiling {
			t.Errorf("a %s 4 096 × 4 096 plan allocates %v times, above the ceiling of %v", c.name, n, c.ceiling)
		}
		t.Logf("a %s 4 096 × 4 096 plan allocates %v times (ceiling %v)", c.name, n, c.ceiling)
	}
}
