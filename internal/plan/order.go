package plan

import "math"

// PipeRel describes one pipeline input to the join orderer: its
// cardinality and the heaviest key's sampled share (the catalog's
// ingest-time HeavyShare) — pairwise statistics come through PairStats.
type PipeRel struct {
	Tuples int
	// HeavyShare estimates heavy-key multiplicity: two relations that both
	// duplicate a heavy key join quadratically in it (≈ share_i·|i| ×
	// share_j·|j| output tuples), a blowup the selectivity bucket alone
	// cannot see. Shares below the uniform/low-skew boundary are sampling
	// noise and ignored.
	HeavyShare float64
}

// PairStats reports the workload buckets of the pair (build i, probe j) —
// the quantized selectivity and probe-side skew the relation catalog
// measured at ingest (Catalog.Workload) — or ok=false when the pair's
// statistics are unknown (an inline source the catalog never saw). The
// orderer treats any unknown pair as "no statistics" and falls back to
// declaration order: guessing selectivities would make the chosen order,
// and with it every simulated time, depend on estimation luck.
type PairStats func(build, probe int) (w Workload, ok bool)

// skewCostPenalty inflates a probe side's cost term per skew bucket: a
// skewed probe hammers few buckets, and the measured-minus-estimated gap
// the paper attributes to latching (Sec. 5.4) grows with that contention.
// The penalty only orders candidates — it never enters a simulated time.
const skewCostPenalty = 0.15

// OrderPipelineEst picks a left-deep execution order for a multi-way join
// pipeline: order[0] ⋈ order[1] runs first, every later order[t] probes the
// previous step's intermediate. The heuristic is the classic greedy
// minimum-intermediate rule over the catalog's ingest-time statistics:
//
//   - the estimated output of build i ⋈ probe j is sel(i,j)·|j| plus the
//     heavy-key collision term hc(i)·hc(j), where hc is the relation's
//     estimated heavy-key multiplicity (1 when effectively uniform) — two
//     skewed relations joined against each other multiply their heavy
//     copies, a quadratic blowup the orderer must price;
//   - the estimated output of intermediate ⋈ k uses min_{a∈done} sel(a,k) —
//     joining with more relations can only shrink the surviving key set —
//     plus the chain's accumulated heavy multiplicity times hc(k);
//   - ties break on the step's work term (build+probe tuples, the probe
//     side inflated by its skew bucket), then on declaration order, so the
//     result is deterministic.
//
// ordered reports whether statistics drove the choice; when any pair the
// greedy search would consult is unknown, the declaration order comes back
// unchanged with ordered=false. Ordering never changes a pipeline's final
// match count — only the sizes of the intermediates and with them the
// simulated (and host) cost of the steps.
//
// ests holds the greedy search's own per-step output estimates: ests[t-1]
// is the estimated match count of step t (the quantity the search
// minimized when it picked that step). The runtime compares each estimate
// against the step's observed matches to decide mid-pipeline re-planning;
// ests is nil when ordered is false (no statistics, no estimates).
func OrderPipelineEst(rels []PipeRel, stats PairStats) (order []int, ests []float64, ordered bool) {
	n := len(rels)
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	if n < 2 || stats == nil {
		return order, nil, false
	}

	// Collect the full pairwise statistics up front; one unknown pair
	// means declaration order (the greedy frontier can consult any pair).
	sel := make([][]float64, n)
	skew := make([][]int, n)
	for i := range sel {
		sel[i] = make([]float64, n)
		skew[i] = make([]int, n)
		for j := range sel[i] {
			if i == j {
				continue
			}
			w, ok := stats(i, j)
			if !ok {
				return order, nil, false
			}
			sel[i][j] = float64(w.SelBucket) / selBuckets
			skew[i][j] = w.SkewBucket
		}
	}
	probeCost := func(i, j int) float64 {
		return float64(rels[j].Tuples) * (1 + skewCostPenalty*float64(skew[i][j]))
	}
	// hc is a relation's estimated heavy-key multiplicity: share × tuples
	// for genuinely skewed data, 1 (a unique key) when the sampled share
	// sits below the uniform/low-skew boundary.
	hc := func(i int) float64 {
		if rels[i].HeavyShare < skewLowThreshold {
			return 1
		}
		return rels[i].HeavyShare * float64(rels[i].Tuples)
	}

	// First step: the ordered pair minimizing the estimated intermediate.
	bi, bj := 0, 1
	bestOut, bestCost, bestHC := -1.0, 0.0, 1.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			collide := hc(i) * hc(j)
			out := sel[i][j]*float64(rels[j].Tuples) + collide
			cost := float64(rels[i].Tuples) + probeCost(i, j)
			if bestOut < 0 || out < bestOut || (out == bestOut && cost < bestCost) {
				bi, bj, bestOut, bestCost = i, j, out, cost
				bestHC = math.Min(collide, out)
			}
		}
	}
	order[0], order[1] = bi, bj
	done := []int{bi, bj}
	used := make([]bool, n)
	used[bi], used[bj] = true, true
	interEst, interHC := bestOut, bestHC

	tail, tailEsts := orderTail(rels, sel, skew, done, used, interEst, interHC)
	copy(order[2:], tail)
	ests = append([]float64{bestOut}, tailEsts...)
	return order, ests, true
}

// estHC is a relation's estimated heavy-key multiplicity (OrderPipelineEst's
// hc): share × tuples for genuinely skewed data, 1 below the low-skew
// boundary.
func estHC(r PipeRel) float64 {
	if r.HeavyShare < skewLowThreshold {
		return 1
	}
	return r.HeavyShare * float64(r.Tuples)
}

// OrderRemaining re-runs the orderer's greedy tail mid-pipeline: inter
// describes the CURRENT intermediate with its observed (not estimated)
// cardinality, done lists the source indices already consumed, and
// remaining the indices still to probe. The returned slice is a
// permutation of remaining, with ests[i] the estimated match count of its
// i-th step (as OrderPipelineEst reports them); ordered=false (remaining
// unchanged, ests nil) when any consulted pair lacks statistics, exactly
// as OrderPipelineEst degrades. The final match count is unaffected by the
// order — re-planning only resizes the remaining intermediates, now
// anchored on a true cardinality instead of a compounded estimate.
func OrderRemaining(inter PipeRel, rels []PipeRel, done, remaining []int, stats PairStats) (order []int, ests []float64, ordered bool) {
	order = append([]int(nil), remaining...)
	if len(remaining) < 2 || stats == nil {
		return order, nil, false
	}
	n := len(rels)
	sel := make([][]float64, n)
	skew := make([][]int, n)
	for i := range sel {
		sel[i] = make([]float64, n)
		skew[i] = make([]int, n)
	}
	// Only the (done ∪ picked, remaining) pairs are consulted; one unknown
	// pair keeps the current order, as OrderPipelineEst would.
	for _, a := range append(append([]int(nil), done...), remaining...) {
		for _, k := range remaining {
			if a == k {
				continue
			}
			w, ok := stats(a, k)
			if !ok {
				return order, nil, false
			}
			sel[a][k] = float64(w.SelBucket) / selBuckets
			skew[a][k] = w.SkewBucket
		}
	}
	used := make([]bool, n)
	for i := range used {
		used[i] = true
	}
	for _, k := range remaining {
		used[k] = false
	}
	// The observed intermediate anchors the tail: its cardinality is exact,
	// and its heavy multiplicity is unknown (its keys already survived every
	// prior join), so the collision term restarts from the estimator's
	// uniform baseline.
	tail, tailEsts := orderTail(rels, sel, skew, append([]int(nil), done...), used, float64(inter.Tuples), estHC(inter))
	return tail, tailEsts, true
}

// orderTail is the shared greedy tail of OrderPipelineEst and OrderRemaining:
// repeatedly pick the unused relation minimizing the estimated next
// intermediate, given the accumulated chain estimate, and return the picks
// in order alongside each pick's estimated output.
func orderTail(rels []PipeRel, sel [][]float64, skew [][]int, done []int, used []bool, interEst, interHC float64) ([]int, []float64) {
	n := len(rels)
	remaining := 0
	for k := 0; k < n; k++ {
		if !used[k] {
			remaining++
		}
	}
	tail := make([]int, 0, remaining)
	ests := make([]float64, 0, remaining)
	probeCost := func(i, j int) float64 {
		return float64(rels[j].Tuples) * (1 + skewCostPenalty*float64(skew[i][j]))
	}
	hc := func(i int) float64 { return estHC(rels[i]) }

	// Later steps: the remaining relation minimizing the next intermediate.
	for t := 0; t < remaining; t++ {
		bk := -1
		bestOut, bestCost, bestHC := -1.0, 0.0, 1.0
		for k := 0; k < n; k++ {
			if used[k] {
				continue
			}
			f, pc := 1.0, 0.0
			for _, a := range done {
				if s := sel[a][k]; s < f {
					f = s
				}
				if c := probeCost(a, k); c > pc {
					pc = c
				}
			}
			collide := interHC * hc(k)
			out := f*float64(rels[k].Tuples) + collide
			cost := interEst + pc
			if bk < 0 || out < bestOut || (out == bestOut && cost < bestCost) {
				bk, bestOut, bestCost = k, out, cost
				bestHC = math.Min(collide, out)
			}
		}
		tail = append(tail, bk)
		ests = append(ests, bestOut)
		done = append(done, bk)
		used[bk] = true
		interEst, interHC = bestOut, bestHC
	}
	return tail, ests
}
