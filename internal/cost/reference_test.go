package cost

import (
	"math"
	"math/rand"
	"testing"

	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// The ratio searches as they stood before they became table-driven, moved
// here verbatim: every candidate priced through EstimateNS, every leaf
// redoing the whole recurrence. They are the definition the table-driven
// searches are held to — == on every ratio and on the time, no tolerance.

func refGridValues(delta float64) []float64 {
	if delta <= 0 || delta > 1 {
		delta = DefaultDelta
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

func refOptimizePL(m *Model, sp SeriesProfile, items int, delta float64) (sched.Ratios, float64) {
	vs := refGridValues(delta)
	n := len(sp.Steps)
	cur := make(sched.Ratios, n)
	best := make(sched.Ratios, n)
	bestT := math.Inf(1)

	var rec func(step int)
	rec = func(step int) {
		if step == n {
			t := m.EstimateNS(sp, items, cur)
			if t < bestT {
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

func refOptimizePLRefined(m *Model, sp SeriesProfile, items int, delta float64) (sched.Ratios, float64) {
	n := len(sp.Steps)
	coarse := 0.1
	if delta > coarse {
		coarse = delta
	}
	best, bestT := refOptimizePL(m, sp, items, coarse)

	vs := refGridValues(delta)
	improved := true
	for iter := 0; improved && iter < 32; iter++ {
		improved = false
		for step := 0; step < n; step++ {
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

func refOptimizeDD(m *Model, sp SeriesProfile, items int, delta float64) (float64, float64) {
	bestR, bestT := 0.0, math.Inf(1)
	for _, v := range refGridValues(delta) {
		t := m.EstimateNS(sp, items, sched.Uniform(v, len(sp.Steps)))
		if t < bestT {
			bestT = t
			bestR = v
		}
	}
	return bestR, bestT
}

// searchCase is one seeded random search problem.
type searchCase struct {
	m     *Model
	sp    SeriesProfile
	items int
	delta float64
}

var searchDeltas = []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1}

// randomSearchCase draws the shapes the searches must agree on: 1–4 steps,
// items from 1 to 2^24 (log-uniform), zero-cost steps, CPU and GPU profiles
// that are the same device (every candidate ties with its mirror image),
// divergent steps, and environments whose hit ratios lie outside [0, 1] so
// that stepTime's clamps are what the tables hold.
func randomSearchCase(rng *rand.Rand) searchCase {
	cpu, gpu := device.APUCPU(), device.APUGPU()
	switch rng.Intn(5) {
	case 0: // all-ties surface
		gpu = cpu
	case 1: // no launch overhead: a zero-cost step costs exactly 0 anywhere
		cpu.LaunchNS, gpu.LaunchNS = 0, 0
	}
	var env device.Env
	for reg := range env.HitRatio {
		env.HitRatio[reg] = rng.Float64()*1.6 - 0.3
	}
	c := searchCase{
		m:     &Model{CPU: cpu, GPU: gpu, Env: fixedEnv(env)},
		items: int(math.Exp2(24 * rng.Float64())),
		delta: searchDeltas[rng.Intn(len(searchDeltas))],
	}
	n := 1 + rng.Intn(4)
	c.sp = SeriesProfile{Name: "random", Steps: make([]StepProfile, n)}
	for i := range c.sp.Steps {
		p := StepProfile{ID: sched.StepID(rng.Intn(int(sched.P4) + 1)), DivFactor: 1}
		if rng.Intn(6) > 0 { // one step in six costs nothing but the launch
			p.InstrPerItem = float64(rng.Intn(200))
			p.SeqBytesPerItem = float64(rng.Intn(4) * 4)
			for reg := range p.RandPerItem {
				if rng.Intn(3) == 0 {
					p.RandPerItem[reg] = 3 * rng.Float64()
				}
			}
			if rng.Intn(3) == 0 {
				p.DivFactor = 1 + 4*rng.Float64()
			}
		}
		c.sp.Steps[i] = p
	}
	return c
}

func sameRatios(a, b sched.Ratios) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameNS is == that also accepts NaN on both sides.
func sameNS(a, b float64) bool { return a == b || (a != a && b != b) }

// TestSearchesEqualReference: the table-driven searches return exactly what
// the per-leaf searches return — the same ratios, the same time, to the last
// bit — on seeded random problems. The exhaustive search is compared where
// the reference's |grid|^n EstimateNS calls stay affordable; the refined
// search and DD at every δ.
func TestSearchesEqualReference(t *testing.T) {
	cases := 2400
	if testing.Short() {
		cases = 300
	}
	rng := rand.New(rand.NewSource(20))
	var full, ties int
	for i := 0; i < cases; i++ {
		c := randomSearchCase(rng)
		ref := &Model{CPU: c.m.CPU, GPU: c.m.GPU, Env: c.m.Env}

		wantR, wantT := refOptimizePLRefined(ref, c.sp, c.items, c.delta)
		gotR, gotT := c.m.OptimizePLRefined(c.sp, c.items, c.delta)
		if !sameRatios(gotR, wantR) || !sameNS(gotT, wantT) {
			t.Fatalf("case %d (%d steps, %d items, δ=%v): OptimizePLRefined = %v, %v; reference %v, %v",
				i, len(c.sp.Steps), c.items, c.delta, gotR, gotT, wantR, wantT)
		}

		wantD, wantDT := refOptimizeDD(ref, c.sp, c.items, c.delta)
		gotD, gotDT := c.m.OptimizeDD(c.sp, c.items, c.delta)
		if gotD != wantD || !sameNS(gotDT, wantDT) {
			t.Fatalf("case %d (%d steps, %d items, δ=%v): OptimizeDD = %v, %v; reference %v, %v",
				i, len(c.sp.Steps), c.items, c.delta, gotD, gotDT, wantD, wantDT)
		}

		if math.Pow(float64(len(refGridValues(c.delta))), float64(len(c.sp.Steps))) > 21000 { // 12^4: four steps at δ=0.1 are in
			continue
		}
		full++
		if c.m.CPU == c.m.GPU {
			ties++
		}
		wantR, wantT = refOptimizePL(ref, c.sp, c.items, c.delta)
		gotR, gotT = c.m.OptimizePL(c.sp, c.items, c.delta)
		if !sameRatios(gotR, wantR) || !sameNS(gotT, wantT) {
			t.Fatalf("case %d (%d steps, %d items, δ=%v): OptimizePL = %v, %v; reference %v, %v",
				i, len(c.sp.Steps), c.items, c.delta, gotR, gotT, wantR, wantT)
		}
	}
	t.Logf("%d cases, %d of them through the full grid too, %d of those on an all-ties surface", cases, full, ties)
}

// TestRefinedSearchStartsOffTheFineGrid pins the case the descent has to
// price outside its table: running sums of 0.1 and of 0.05 round differently
// (0.30000000000000004 and 0.7999999999999999 are on the first grid only),
// so a coarse optimum at such a value is a starting point the δ=0.05 table
// does not hold.
func TestRefinedSearchStartsOffTheFineGrid(t *testing.T) {
	fine := map[float64]bool{}
	for _, v := range refGridValues(0.05) {
		fine[v] = true
	}
	var offGrid []float64
	for _, v := range refGridValues(0.1) {
		if !fine[v] {
			offGrid = append(offGrid, v)
		}
	}
	if len(offGrid) == 0 {
		t.Fatal("every 0.1-grid value is on the 0.05 grid: this test has lost its subject")
	}

	rng := rand.New(rand.NewSource(5))
	hits := 0
	for i := 0; i < 4000 && hits < 40; i++ {
		c := randomSearchCase(rng)
		c.delta = 0.05
		coarse, _ := refOptimizePL(&Model{CPU: c.m.CPU, GPU: c.m.GPU, Env: c.m.Env}, c.sp, c.items, 0.1)
		starts := false
		for _, v := range coarse {
			starts = starts || !fine[v]
		}
		if !starts {
			continue
		}
		hits++
		wantR, wantT := refOptimizePLRefined(&Model{CPU: c.m.CPU, GPU: c.m.GPU, Env: c.m.Env}, c.sp, c.items, c.delta)
		gotR, gotT := c.m.OptimizePLRefined(c.sp, c.items, c.delta)
		if !sameRatios(gotR, wantR) || !sameNS(gotT, wantT) {
			t.Fatalf("coarse start %v: OptimizePLRefined = %v, %v; reference %v, %v", coarse, gotR, gotT, wantR, wantT)
		}
	}
	if hits == 0 {
		t.Fatalf("no random case put the coarse optimum on one of %v", offGrid)
	}
	t.Logf("%d searches started from a coarse value absent from the δ=0.05 grid (%v)", hits, offGrid)
}

// TestPruneNeedsNonNegativeTables: a profile that prices a step below zero
// (or at NaN) breaks the bound pruning rests on, so the search must notice
// and visit every leaf; the answer is still the reference's.
func TestPruneNeedsNonNegativeTables(t *testing.T) {
	for name, instr := range map[string]float64{"negative": -400, "NaN": math.NaN()} {
		m := testModel()
		sp := SeriesProfile{Name: name, Steps: []StepProfile{chaseProfile(), computeProfile(), chaseProfile()}}
		sp.Steps[1].InstrPerItem = instr
		wantR, wantT := refOptimizePL(testModel(), sp, 1<<16, 0.1)
		gotR, gotT := m.OptimizePL(sp, 1<<16, 0.1)
		if m.search.prune {
			t.Fatalf("%s step time: pruning stayed on", name)
		}
		if !sameRatios(gotR, wantR) || !sameNS(gotT, wantT) {
			t.Fatalf("%s step time: OptimizePL = %v, %v; reference %v, %v", name, gotR, gotT, wantR, wantT)
		}
	}
	m := testModel()
	m.OptimizePL(SeriesProfile{Name: "s", Steps: []StepProfile{chaseProfile(), computeProfile()}}, 1<<16, 0.1)
	if !m.search.prune {
		t.Fatal("pruning is off on an ordinary profile")
	}
}

// TestSearchesAllocateNothing: on a warm Model the searches work entirely in
// the model's scratch. OptimizePL and OptimizePLRefined return a vector the
// caller keeps (a Plan stores it), which is their one allocation.
func TestSearchesAllocateNothing(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile(), chaseProfile(), computeProfile(), chaseProfile()}}
	best := make(sched.Ratios, len(sp.Steps))
	m.searchRefined(sp, 1<<20, 0.02, best) // warm: the largest tables come first

	for name, search := range map[string]func(){
		"searchRefined δ=0.02": func() { m.searchRefined(sp, 1<<20, 0.02, best) },
		"searchRefined δ=0.05": func() { m.searchRefined(sp, 1<<20, 0.05, best) },
		"searchGrid δ=0.1":     func() { m.searchGrid(sp, 1<<20, 0.1, best) },
		"OptimizeDD δ=0.02":    func() { m.OptimizeDD(sp, 1<<20, 0.02) },
	} {
		if n := testing.AllocsPerRun(20, search); n != 0 {
			t.Errorf("%s allocates %v times per run on a warm model, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() { m.OptimizePLRefined(sp, 1<<20, 0.02) }); n != 1 {
		t.Errorf("OptimizePLRefined allocates %v times per run on a warm model, want 1 (the returned ratios)", n)
	}
}
