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

// refStepTime is the step-time body every estimate and table entry went
// through before the per-(step, device) invariants were hoisted into
// stepPrice: both profiles by value, Env and the clamped per-region weights
// per call.
func refStepTime(m *Model, p StepProfile, dp device.Profile, dev *device.Device, items float64) float64 {
	if items <= 0 {
		return 0
	}
	instr := (p.InstrPerItem + float64(dp.PerItemInstr)) * items
	c := instr / dp.InstrThroughput()

	env := m.Env(p.ID, dev)
	seq := p.SeqBytesPerItem * items / dp.BandwidthGBs
	var rnd float64
	for reg := device.Region(0); reg < device.NumRegions; reg++ {
		cnt := p.RandPerItem[reg] * items
		if cnt == 0 {
			continue
		}
		hit := env.HitRatio[reg]
		if hit < 0 {
			hit = 0
		} else if hit > 1 {
			hit = 1
		}
		rnd += cnt * (hit*dp.RandHitNS + (1-hit)*dp.RandMissNS)
	}
	if dp.Kind == device.GPU && p.DivFactor > 1 {
		// SIMD lockstep stretches compute and latency-bound accesses.
		c *= p.DivFactor
		rnd *= p.DivFactor
	}
	return c + seq + rnd + dp.LaunchNS
}

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

// TestStepPriceEqualsReference: a step time from the hoisted invariants is
// the reference body's to the last bit, on the random search cases' steps
// (zero and non-zero random regions, hit ratios outside [0, 1], GPU
// divergence, zero-cost steps, identical device pairs) at zero, negative,
// fractional, grid and 2^24 item counts.
func TestStepPriceEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var compared, divergent, randomAccess int
	for i := 0; i < 500; i++ {
		c := randomSearchCase(rng)
		x := float64(c.items)
		items := []float64{0, -1, 0.5, 1 - 0.7, 1 << 24, x, 0.3 * x, (1 - 0.3) * x, rng.Float64() * x}
		cpuDev, gpuDev := newDevPair(c.m)
		for _, p := range c.sp.Steps {
			for _, d := range []struct {
				dp  device.Profile
				dev *device.Device
			}{{c.m.CPU, cpuDev}, {c.m.GPU, gpuDev}} {
				price := c.m.price(&p, &d.dp, d.dev)
				for _, n := range items {
					got, want := price.at(n), refStepTime(c.m, p, d.dp, d.dev, n)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("case %d, step %+v on the %v at %v items: %v (%#x), reference %v (%#x)",
							i, p, d.dp.Kind, n, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					compared++
				}
				if d.dp.Kind == device.GPU && p.DivFactor > 1 {
					divergent++
				}
				if p.RandPerItem != [device.NumRegions]float64{} {
					randomAccess++
				}
			}
		}
	}
	if divergent == 0 || randomAccess == 0 {
		t.Fatalf("%d divergent GPU prices, %d with random accesses: the cases lost a subject", divergent, randomAccess)
	}
	t.Logf("%d step times compared, from %d divergent GPU prices and %d with random accesses", compared, divergent, randomAccess)
}

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

// TestSeedTiesGoToTheEarlierLeaf: the exhaustive search's incumbent starts
// at the best uniform leaf's time, and an earlier leaf with exactly that
// time must still win. A step that costs nothing at any ratio (no launch
// overhead, no per-item work, no bookkeeping) ahead of a real one makes
// such a surface: after it no device stalls, so (0, …, 0, a) prices
// exactly as (a, …, a) and comes first.
func TestSeedTiesGoToTheEarlierLeaf(t *testing.T) {
	free := StepProfile{ID: sched.B1, DivFactor: 1}
	for _, c := range []struct {
		steps []StepProfile
		delta float64
	}{
		{[]StepProfile{free, chaseProfile()}, 0.1},
		{[]StepProfile{free, computeProfile()}, 0.02},
		{[]StepProfile{free, free, chaseProfile()}, 0.1},
	} {
		newModel := func() *Model {
			m := testModel()
			m.CPU.LaunchNS, m.GPU.LaunchNS = 0, 0
			m.CPU.PerItemInstr, m.GPU.PerItemInstr = 0, 0
			return m
		}
		sp := SeriesProfile{Name: "tie", Steps: c.steps}
		n := len(c.steps)
		wantR, wantT := refOptimizePL(newModel(), sp, 1<<20, c.delta)
		a, uniformT := refOptimizeDD(newModel(), sp, 1<<20, c.delta)
		if a == 0 || wantT != uniformT || !sameRatios(wantR, append(make(sched.Ratios, n-1), a)) {
			t.Fatalf("%d steps, δ=%v: the reference chose %v at %v, the best uniform leaf is %v at %v: not the tie this test is about",
				n, c.delta, wantR, wantT, a, uniformT)
		}
		m := newModel()
		gotR, gotT := m.OptimizePL(sp, 1<<20, c.delta)
		if !m.search.prune {
			t.Fatal("pruning is off, so the seed was not used")
		}
		if !sameRatios(gotR, wantR) || !sameNS(gotT, wantT) {
			t.Fatalf("%d steps, δ=%v: OptimizePL = %v, %v; reference %v, %v", n, c.delta, gotR, gotT, wantR, wantT)
		}
		wantR, wantT = refOptimizePLRefined(newModel(), sp, 1<<20, c.delta)
		if gotR, gotT = m.OptimizePLRefined(sp, 1<<20, c.delta); !sameRatios(gotR, wantR) || !sameNS(gotT, wantT) {
			t.Fatalf("%d steps, δ=%v: OptimizePLRefined = %v, %v; reference %v, %v", n, c.delta, gotR, gotT, wantR, wantT)
		}
	}
}

// TestPruneNeedsNonNegativeTables: a profile that prices a step below zero
// (or at NaN) breaks the bounds pruning, the incumbent's seed and the
// prefix bound rest on, so the search must notice, start from +Inf with no
// bound and visit every leaf; the answer is still the reference's.
func TestPruneNeedsNonNegativeTables(t *testing.T) {
	// started runs a search's start over rest slots that hold NaN before.
	started := func(m *Model, sp SeriesProfile) (*search, []float64) {
		m.tabulate(sp, 1<<16, 0.1)
		rest, _ := m.stepScratch(len(sp.Steps))
		for i := range rest {
			rest[i] = math.NaN()
		}
		m.search.start(rest)
		return &m.search, rest
	}
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
		if s, rest := started(m, sp); !math.IsInf(s.bestT, 1) || !math.IsNaN(rest[0]) {
			t.Fatalf("%s step time: the search starts at incumbent %v with prefix bounds %v; want +Inf and none", name, s.bestT, rest)
		}
	}
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{chaseProfile(), computeProfile()}}
	m.OptimizePL(sp, 1<<16, 0.1)
	if !m.search.prune {
		t.Fatal("pruning is off on an ordinary profile")
	}
	_, uniformT := refOptimizeDD(testModel(), sp, 1<<16, 0.1)
	if s, rest := started(m, sp); s.bestT != math.Nextafter(uniformT, math.Inf(1)) || !(rest[0] > 0) || rest[1] != 0 {
		t.Fatalf("ordinary profile: the search starts at incumbent %v with prefix bounds %v; want one ulp above the best uniform leaf's %v, and [>0 0]",
			s.bestT, rest, uniformT)
	}
}

// TestSearchesAllocateNothing: on a warm Model the searches work entirely in
// the model's scratch, the exhaustive search's seed and prefix bound
// included. The tests' OptimizePLRefined returns a new vector, its one
// allocation.
func TestSearchesAllocateNothing(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile(), chaseProfile(), computeProfile(), chaseProfile()}}
	best := make(sched.Ratios, len(sp.Steps))
	m.OptimizePLRefinedInto(sp, 1<<20, 0.02, best) // warm: the largest tables come first
	if !m.search.prune {
		t.Fatal("the exhaustive search ran unseeded and unbounded on an ordinary profile")
	}

	for name, search := range map[string]func(){
		"OptimizePLRefinedInto δ=0.02": func() { m.OptimizePLRefinedInto(sp, 1<<20, 0.02, best) },
		"OptimizePLRefinedInto δ=0.05": func() { m.OptimizePLRefinedInto(sp, 1<<20, 0.05, best) },
		"OptimizePLInto δ=0.1":         func() { m.OptimizePLInto(sp, 1<<20, 0.1, best) },
		"OptimizePLInto δ=0.05":        func() { m.OptimizePLInto(sp, 1<<20, 0.05, best) },
		"OptimizeDD δ=0.02":            func() { m.OptimizeDD(sp, 1<<20, 0.02) },
	} {
		if n := testing.AllocsPerRun(20, search); n != 0 {
			t.Errorf("%s allocates %v times per run on a warm model, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() { m.OptimizePLRefined(sp, 1<<20, 0.02) }); n != 1 {
		t.Errorf("OptimizePLRefined allocates %v times per run on a warm model, want 1 (the returned ratios)", n)
	}
}
