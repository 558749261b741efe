package plan

import (
	"math"
	"slices"
)

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
	sel, skew, ok := pairBuckets(n, order, order, stats)
	if !ok {
		return order, nil, false
	}

	// First step: the ordered pair minimizing the estimated intermediate.
	bi, bj := 0, 1
	bestOut, bestCost, bestHC := -1.0, 0.0, 1.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			collide := float64(estHC(rels[i]) * estHC(rels[j]))
			out := float64(sel[i][j]*float64(rels[j].Tuples)) + collide
			cost := float64(rels[i].Tuples) + probeCost(rels, skew, i, j)
			if bestOut < 0 || out < bestOut || (out == bestOut && cost < bestCost) {
				bi, bj, bestOut, bestCost = i, j, out, cost
				bestHC = math.Min(collide, out)
			}
		}
	}
	rest := slices.DeleteFunc(slices.Clone(order), func(k int) bool { return k == bi || k == bj })
	tail, tailEsts := orderTail(rels, sel, skew, []int{bi, bj}, rest, bestOut, bestHC)
	order[0], order[1] = bi, bj
	copy(order[2:], tail)
	ests = append([]float64{bestOut}, tailEsts...)
	return order, ests, true
}

// estHC is a relation's estimated heavy-key multiplicity: share × tuples
// for genuinely skewed data, 1 (a unique key) when the sampled share sits
// below the uniform/low-skew boundary.
func estHC(r PipeRel) float64 {
	if r.HeavyShare < skewLowThreshold {
		return 1
	}
	return r.HeavyShare * float64(r.Tuples)
}

// probeCost is the work term of probing j against i's build: j's tuples,
// inflated by the pair's skew bucket.
func probeCost(rels []PipeRel, skew [][]int, i, j int) float64 {
	return float64(float64(rels[j].Tuples) * (1 + float64(skewCostPenalty*float64(skew[i][j]))))
}

// pairBuckets consults stats for every pair (a, k), a in builds and k in
// probes, a != k, in that order, into n × n selectivity and skew tables;
// ok=false at the first unknown pair, whose caller keeps its order.
func pairBuckets(n int, builds, probes []int, stats PairStats) (sel [][]float64, skew [][]int, ok bool) {
	sel = make([][]float64, n)
	skew = make([][]int, n)
	for i := range sel {
		sel[i] = make([]float64, n)
		skew[i] = make([]int, n)
	}
	for _, a := range builds {
		for _, k := range probes {
			if a == k {
				continue
			}
			w, known := stats(a, k)
			if !known {
				return nil, nil, false
			}
			sel[a][k] = float64(w.SelBucket) / selBuckets
			skew[a][k] = w.SkewBucket
		}
	}
	return sel, skew, true
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
	// Only the (done ∪ picked, remaining) pairs are consulted; one unknown
	// pair keeps the current order, as OrderPipelineEst would.
	sel, skew, ok := pairBuckets(len(rels), append(append([]int(nil), done...), remaining...), remaining, stats)
	if !ok {
		return order, nil, false
	}
	// The observed intermediate anchors the tail: its cardinality is exact,
	// and its heavy multiplicity is unknown (its keys already survived every
	// prior join), so the collision term restarts from the estimator's
	// uniform baseline.
	tail, tailEsts := orderTail(rels, sel, skew, append([]int(nil), done...), slices.Sorted(slices.Values(remaining)), float64(inter.Tuples), estHC(inter))
	return tail, tailEsts, true
}

// orderTail is the shared greedy tail of OrderPipelineEst and OrderRemaining:
// repeatedly pick, from cands (ascending, consumed), the relation minimizing
// the estimated next intermediate, given the accumulated chain estimate,
// and return the picks in order alongside each pick's estimated output.
// Ties go to the lowest index.
func orderTail(rels []PipeRel, sel [][]float64, skew [][]int, done, cands []int, interEst, interHC float64) ([]int, []float64) {
	tail := make([]int, 0, len(cands))
	ests := make([]float64, 0, len(cands))
	for len(cands) > 0 {
		bc := -1
		bestOut, bestCost, bestHC := -1.0, 0.0, 1.0
		for c, k := range cands {
			f, pc := 1.0, 0.0
			for _, a := range done {
				if s := sel[a][k]; s < f {
					f = s
				}
				if c := probeCost(rels, skew, a, k); c > pc {
					pc = c
				}
			}
			collide := float64(interHC * estHC(rels[k]))
			out := float64(f*float64(rels[k].Tuples)) + collide
			cost := interEst + pc
			if bc < 0 || out < bestOut || (out == bestOut && cost < bestCost) {
				bc, bestOut, bestCost = c, out, cost
				bestHC = math.Min(collide, out)
			}
		}
		bk := cands[bc]
		cands = slices.Delete(cands, bc, bc+1)
		tail = append(tail, bk)
		ests = append(ests, bestOut)
		done = append(done, bk)
		interEst, interHC = bestOut, bestHC
	}
	return tail, ests
}
