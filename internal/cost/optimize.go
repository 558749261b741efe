package cost

import (
	"math"
	"math/rand"
	"sort"

	"apujoin/internal/sched"
)

// DefaultDelta is the ratio grid granularity the paper uses (δ = 0.02,
// "a tradeoff between the effectiveness and the execution time of
// optimizations").
const DefaultDelta = 0.02

// MinDelta is the finest grid core.Options.Validate accepts: the grid holds
// 1/δ ratios and the searches are polynomial in it, so an unbounded δ lets
// one request hold a planner for minutes. Twenty times finer than the
// paper's δ, finer than any in-tree caller.
const MinDelta = 0.001

// gridValues appends the candidate ratios 0, δ, 2δ, …, 1 to vs[:0]. The
// values are the running sum itself (0.1+0.1+0.1 is 0.30000000000000004 and
// stays so): the searches compare and return them as they are.
func gridValues(vs []float64, delta float64) []float64 {
	if delta <= 0 || delta > 1 {
		delta = DefaultDelta
	}
	vs = vs[:0]
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

// search is the ratio searches' scratch, held on the Model and grown once,
// so that a search on a warm Model allocates nothing: the planner keeps one
// Model per pooled planning scratch, and its tables serve every candidate of
// every plan made on it, the results going into the planner's buffers. A
// step's time depends on nothing but its own ratio, so each search first
// tabulates the step's price over the grid — 2·n prices, 2·n·|grid| table
// entries — and then combines table entries, where pricing every candidate
// through EstimateNS made 2·n·|grid|^n step times. Every candidate is still
// the same float operations in the same order as EstimateNS on its ratios
// (DESIGN.md, "Ratio search").
type search struct {
	grid []float64
	// cpuTab[i*len(grid)+k] is step i's time on the CPU at ratio grid[k],
	// gpuTab the GPU's on the remaining 1-grid[k].
	cpuTab, gpuTab []float64
	// prune records that no table entry is negative or NaN, which is what
	// makes a prefix sum a lower bound of every total beneath it, and what
	// the exhaustive search's seed and prefix bound rest on too.
	prune bool

	// The exhaustive recursion's state: the candidate being built, the
	// incumbent (the caller's result slice) and its time.
	cur, best sched.Ratios
	bestT     float64
}

// boundScale is 2·(1+1e-9). A leaf's time is max(cpuSum, gpuSum) ≥
// (cpuSum+gpuSum)/2, so a prefix whose cpuSum+gpuSum plus the least the
// remaining steps can add exceeds boundScale × the incumbent's time holds no
// strict improvement; the 1e-9 covers the rounding of the additions on
// either side of that inequality (each ≤ 2^-53 relative, a few per step).
const boundScale = 2 * (1 + 1e-9)

// tabulate fills the search tables for sp over the δ-grid and returns the
// grid size.
func (m *Model) tabulate(sp SeriesProfile, items int, delta float64) int {
	s := &m.search
	s.grid = gridValues(s.grid, delta)
	g := len(s.grid)
	if size := len(sp.Steps) * g; cap(s.cpuTab) < size {
		s.cpuTab = make([]float64, size)
		s.gpuTab = make([]float64, size)
	}
	cpuDev, gpuDev := newDevPair(m)
	x := float64(items)
	s.prune = true
	for i := range sp.Steps {
		p := &sp.Steps[i]
		cp, gp := m.price(p, &m.CPU, cpuDev), m.price(p, &m.GPU, gpuDev)
		cpuT, gpuT := s.cpuTab[i*g:(i+1)*g], s.gpuTab[i*g:(i+1)*g]
		for k, v := range s.grid {
			c, gt := cp.at(v*x), gp.at((1-v)*x)
			cpuT[k], gpuT[k] = c, gt
			if !(c >= 0 && gt >= 0) {
				s.prune = false
			}
		}
	}
	return g
}

// uniform returns the grid index and time of the best all-equal leaf, the
// first such in grid order. Equal ratios never stall (Eqs. 4 and 5 need
// r_i ≠ r_{i-1}), so a device's total is the plain sum of its step times.
func (s *search) uniform(n int) (int, float64) {
	g := len(s.grid)
	bestK, bestT := 0, math.Inf(1)
	for k := range s.grid {
		var cpuSum, gpuSum float64
		for i := 0; i < n; i++ {
			cpuSum += s.cpuTab[i*g+k]
			gpuSum += s.gpuTab[i*g+k]
		}
		if t := math.Max(cpuSum, gpuSum); t < bestT {
			bestK, bestT = k, t
		}
	}
	return bestK, bestT
}

// OptimizePLInto exhaustively searches the δ-grid over all per-step ratios —
// the paper's approach ("we consider all the possible ratios at the step
// of δ for r_i") — and writes into best, one ratio per step, the ratios
// with the lowest estimated time, the first such in lexicographic grid
// order, returning that time. best is the caller's: a planner prices many
// candidates into its own buffers and keeps one.
//
// The search space is |grid|^n — 51^4 ≈ 6.8M candidates at δ=0.02 over a
// 4-step series — but candidates sharing a ratio prefix share its partial
// sums, so the tree is walked with one DelayStep per node rather than n per
// leaf, over tabulated step times, from an incumbent no worse than the best
// uniform leaf, and subtrees that provably cannot beat the incumbent are
// skipped. BenchmarkOptimizePLFullGrid reads 0.7–0.85 ms for that grid on
// the two-core machine where pricing each leaf through EstimateNS read
// 1.8 s; OptimizePLRefinedInto, the default, 42–49 µs.
func (m *Model) OptimizePLInto(sp SeriesProfile, items int, delta float64, best sched.Ratios) float64 {
	n := len(sp.Steps)
	if n == 0 {
		return 0
	}
	m.tabulate(sp, items, delta)
	s := &m.search
	if cap(s.cur) < n {
		s.cur = make(sched.Ratios, n)
	}
	s.cur, s.best = s.cur[:n], best
	rest, _ := m.stepScratch(n)
	s.start(rest)
	s.descend(rest, 0, 0, 0, 0, 0)
	s.best = nil
	return s.bestT
}

// start sets the exhaustive search's incumbent and, under prune, fills
// rest[i] with Σ_{j>i} min_k(cpuTab+gpuTab), the least the steps after step
// i can add to cpuSum+gpuSum.
//
// Under prune the incumbent starts one ulp above the best uniform leaf's
// time. The descent reaches that leaf at exactly that time (it adds the
// same step times in the same order as uniform, and equal ratios never
// stall), so the leaf an unseeded search would return — the first at the
// minimum, which is at most that time — is strictly below the seed and
// still wins, even when it ties the uniform leaf: that is what the ulp is
// for. Without prune a NaN could make the seed a time no leaf beats, so
// the search starts from +Inf and rest is left alone.
func (s *search) start(rest []float64) {
	s.bestT = math.Inf(1)
	if !s.prune {
		return
	}
	g, n := len(s.grid), len(rest)
	var sum float64
	for i := n - 1; i >= 0; i-- {
		rest[i] = sum
		lo := math.Inf(1)
		for k := i * g; k < (i+1)*g; k++ {
			if t := s.cpuTab[k] + s.gpuTab[k]; t < lo {
				lo = t
			}
		}
		sum += lo
	}
	_, u := s.uniform(n)
	s.bestT = math.Nextafter(u, math.Inf(1))
}

// descend tries every grid value for step and recurses, carrying what the
// Eq. 4/5 recurrence needs of the prefix: the per-device sums, the previous
// ratio and the previous step's GPU time. Leaves are reached in the order
// nested loops over the grid would reach them, and only a strictly lower
// time replaces the incumbent. rest is start's.
func (s *search) descend(rest []float64, step int, cpuSum, gpuSum, rp, gpuPrev float64) {
	g := len(s.grid)
	cpuT, gpuT := s.cpuTab[step*g:(step+1)*g], s.gpuTab[step*g:(step+1)*g]
	last := step == len(s.cur)-1
	for k, v := range s.grid {
		if step == 0 {
			rp = v
		}
		dC, dG := sched.DelayStep(cpuSum, gpuSum, rp, v, gpuPrev, cpuT[k], gpuT[k])
		cs := cpuSum + (cpuT[k] + dC)
		gs := gpuSum + (gpuT[k] + dG)
		s.cur[step] = v
		switch {
		case last:
			if t := math.Max(cs, gs); t < s.bestT {
				s.bestT = t
				copy(s.best, s.cur)
			}
		case s.prune && (cs >= s.bestT || gs >= s.bestT || cs+gs+rest[step] > s.bestT*boundScale):
			// Step times and delays are non-negative, so every total
			// below is at least this prefix's, and every leaf's time is
			// at least half its two totals, which are at least this
			// prefix's plus the cheapest remaining steps: no strict
			// improvement.
		default:
			s.descend(rest, step+1, cs, gs, v, gpuT[k])
		}
	}
}

// OptimizePLRefinedInto runs a coarse grid pass followed by coordinate
// descent at the requested δ, into best, one ratio per step, and returns the
// time. It finds the same optima as the full grid on the well-behaved cost
// surfaces of the hash join series at a fraction of the evaluations, and is
// what the join driver uses by default.
func (m *Model) OptimizePLRefinedInto(sp SeriesProfile, items int, delta float64, best sched.Ratios) float64 {
	coarse := 0.1
	if delta > coarse {
		coarse = delta
	}
	bestT := m.OptimizePLInto(sp, items, coarse, best)

	// The descent holds the current point's step times and swaps one
	// step's pair for a table entry per probe. The coarse pass's values
	// need not be on the fine grid (0.30000000000000004 is not on the
	// δ=0.05 one), so they are priced directly.
	g := m.tabulate(sp, items, delta)
	s := &m.search
	cpu, gpu := m.stepScratch(len(sp.Steps))
	m.stepTimes(sp, items, best, cpu, gpu)
	improved := true
	for iter := 0; improved && iter < 32; iter++ {
		improved = false
		for step := range best {
			orig, origC, origG := best[step], cpu[step], gpu[step]
			for k, v := range s.grid {
				if v == orig {
					continue
				}
				best[step], cpu[step], gpu[step] = v, s.cpuTab[step*g+k], s.gpuTab[step*g+k]
				cpuTot, gpuTot := sched.DelayTotals(cpu, gpu, best)
				if t := math.Max(cpuTot, gpuTot); t < bestT {
					bestT = t
					orig, origC, origG = v, cpu[step], gpu[step]
					improved = true
				}
			}
			best[step], cpu[step], gpu[step] = orig, origC, origG
		}
	}
	return bestT
}

// OptimizeDD searches the single-ratio space of the data-dividing scheme:
// all steps share one ratio r.
func (m *Model) OptimizeDD(sp SeriesProfile, items int, delta float64) (float64, float64) {
	m.tabulate(sp, items, delta)
	k, t := m.search.uniform(len(sp.Steps))
	return m.search.grid[k], t
}

// OptimizeOLInto decides, per step, whether it runs entirely on the CPU or
// the GPU — the off-loading scheme — into ratios, one per step, and returns
// the time. On the coupled architecture the decision is independent per
// step ("depending only on the performance comparison of running the steps
// on the CPU and the GPU", Sec. 3.2), so the search is linear rather than
// 2^n: 2·n step times and one EstimateNS, nothing a table would save.
func (m *Model) OptimizeOLInto(sp SeriesProfile, items int, ratios sched.Ratios) float64 {
	cpuDev, gpuDev := newDevPair(m)
	for i := range sp.Steps {
		p := &sp.Steps[i]
		cp, gp := m.price(p, &m.CPU, cpuDev), m.price(p, &m.GPU, gpuDev)
		if cp.at(float64(items)) < gp.at(float64(items)) {
			ratios[i] = 1
		} else {
			ratios[i] = 0
		}
	}
	return m.EstimateNS(sp, items, ratios)
}

// MonteCarloSample is one randomized PL configuration and its estimate.
type MonteCarloSample struct {
	Ratios sched.Ratios
	NS     float64
}

// MonteCarlo evaluates runs random ratio settings (paper Sec. 5.3, Fig. 9)
// and returns the samples sorted by estimated time, ready for a CDF. Each
// sample is priced through EstimateNS: the ratios are float64(k)/50, which
// are not the running sums the searches' δ=0.02 grid holds, so no table
// entry is theirs.
func (m *Model) MonteCarlo(sp SeriesProfile, items, runs int, seed int64) []MonteCarloSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]MonteCarloSample, 0, runs)
	n := len(sp.Steps)
	for k := 0; k < runs; k++ {
		r := make(sched.Ratios, n)
		for i := range r {
			r[i] = float64(rng.Intn(51)) / 50 // δ=0.02 grid, uniform
		}
		out = append(out, MonteCarloSample{Ratios: r, NS: m.EstimateNS(sp, items, r)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NS < out[j].NS })
	return out
}
