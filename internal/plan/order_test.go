package plan

import (
	"reflect"
	"testing"
)

// statsTable backs a PairStats from a dense selectivity-bucket matrix
// (bucket −1 marks an unknown pair).
func statsTable(selBucket [][]int, skewBucket [][]int) PairStats {
	return func(i, j int) (Workload, bool) {
		if selBucket[i][j] < 0 {
			return Workload{}, false
		}
		w := Workload{SelBucket: selBucket[i][j]}
		if skewBucket != nil {
			w.SkewBucket = skewBucket[i][j]
		}
		return w, true
	}
}

func TestOrderPipelineGreedy(t *testing.T) {
	// Three relations: a selective pair exists between 0 and 2, so the
	// greedy order starts there and leaves the wide join for last.
	rels := []PipeRel{{Tuples: 1000}, {Tuples: 1000}, {Tuples: 1000}}
	sel := [][]int{
		{0, 8, 1}, // build 0: probe 1 sel 1.0, probe 2 sel 0.125
		{8, 0, 8},
		{1, 8, 0}, // build 2: probe 0 sel 0.125
	}
	order, _, ordered := OrderPipelineEst(rels, statsTable(sel, nil))
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	// Both (0,2) and (2,0) estimate 125 output tuples; equal cost breaks
	// the tie toward declaration order, so build 0 probes 2 first.
	if want := []int{0, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestOrderPipelineSizeTieBreak(t *testing.T) {
	// Uniform selectivity 1.0 everywhere: output estimates equal the probe
	// size, so the smallest relation is probed first; the build side of
	// that first step is then the cheaper of the remaining two.
	rels := []PipeRel{{Tuples: 4000}, {Tuples: 100}, {Tuples: 900}}
	sel := [][]int{{0, 8, 8}, {8, 0, 8}, {8, 8, 0}}
	order, _, ordered := OrderPipelineEst(rels, statsTable(sel, nil))
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	if want := []int{2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestOrderPipelineSkewPenalty(t *testing.T) {
	// The selective pair runs first in its cheaper direction (probing the
	// 100-tuple side). Two equal-size, equal-selectivity candidates remain
	// for the next probe; relation 2's pair stats report high skew, so 3
	// goes first.
	rels := []PipeRel{{Tuples: 100}, {Tuples: 200}, {Tuples: 500}, {Tuples: 500}}
	sel := [][]int{
		{0, 4, 8, 8},
		{4, 0, 8, 8},
		{8, 8, 0, 8},
		{8, 8, 8, 0},
	}
	skew := [][]int{
		{0, 0, 2, 0},
		{0, 0, 2, 0},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
	}
	order, _, ordered := OrderPipelineEst(rels, statsTable(sel, skew))
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	if want := []int{1, 0, 3, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestOrderPipelineHeavyCollision: the most selective pair on paper joins
// two heavy-key relations — a quadratic blowup (share_B·|B| × share_C·|C|
// output tuples) the selectivity bucket cannot see. With heavy shares the
// orderer defers that pair; without them (the control) it would lead with
// it.
func TestOrderPipelineHeavyCollision(t *testing.T) {
	rels := []PipeRel{
		{Tuples: 10000},                  // A: uniform build
		{Tuples: 2000, HeavyShare: 0.25}, // B: hc = 500
		{Tuples: 800, HeavyShare: 0.25},  // C: hc = 200
	}
	sel := [][]int{
		{0, 8, 8},
		{8, 0, 1}, // B ⋈ C looks maximally selective...
		{8, 1, 0}, // ...in both directions
	}
	order, _, ordered := OrderPipelineEst(rels, statsTable(sel, nil))
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	// A ⋈ C (est 800 + 1·200) beats B ⋈ C (est 100 + 500·200 = 100100).
	if want := []int{0, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v (heavy collision not priced)", order, want)
	}

	// Control: identical sizes and selectivities, no heavy shares — the
	// sel-bucket estimate alone picks the explosive pair first.
	uniform := []PipeRel{{Tuples: 10000}, {Tuples: 2000}, {Tuples: 800}}
	order, _, _ = OrderPipelineEst(uniform, statsTable(sel, nil))
	if order[0] != 1 || order[1] != 2 {
		t.Errorf("control order = %v, want the B ⋈ C prefix", order)
	}
}

func TestOrderPipelineFallsBackWithoutStats(t *testing.T) {
	rels := []PipeRel{{Tuples: 10}, {Tuples: 20}, {Tuples: 30}}
	sel := [][]int{
		{0, 8, -1}, // pair (0,2) unknown
		{8, 0, 8},
		{8, 8, 0},
	}
	order, _, ordered := OrderPipelineEst(rels, statsTable(sel, nil))
	if ordered {
		t.Error("ordered = true with a missing pair")
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("fallback order = %v, want declaration %v", order, want)
	}
	// No stats function at all behaves the same.
	order, _, ordered = OrderPipelineEst(rels, nil)
	if ordered || !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("nil stats: order %v ordered %v, want declaration and false", order, ordered)
	}
}

// TestOrderPipelinePairSwap: with two relations the orderer may still swap
// build and probe when the reversed direction estimates cheaper.
func TestOrderPipelinePairSwap(t *testing.T) {
	rels := []PipeRel{{Tuples: 100}, {Tuples: 5000}}
	sel := [][]int{{0, 8}, {8, 0}}
	order, _, ordered := OrderPipelineEst(rels, statsTable(sel, nil))
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	// Probing the 100-tuple side estimates 100 output tuples vs 5000.
	if want := []int{1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestOrderPipelineEstEstimates: the est slice reports exactly what the
// greedy search minimized — one estimated match count per step, in
// executed order — and is absent when the orderer falls back.
func TestOrderPipelineEstEstimates(t *testing.T) {
	rels := []PipeRel{{Tuples: 1000}, {Tuples: 1000}, {Tuples: 1000}}
	sel := [][]int{
		{0, 8, 1},
		{8, 0, 8},
		{1, 8, 0},
	}
	order, ests, ordered := OrderPipelineEst(rels, statsTable(sel, nil))
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	if want := []int{0, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if len(ests) != len(rels)-1 {
		t.Fatalf("%d estimates for %d steps", len(ests), len(rels)-1)
	}
	// Step 1 probes relation 2 at selectivity 1/8 of its 1000 tuples,
	// plus the uniform collision baseline.
	if ests[0] != 126 {
		t.Errorf("first step estimate %v, want 126", ests[0])
	}
	for i, e := range ests {
		if e <= 0 {
			t.Errorf("estimate %d = %v, want > 0", i, e)
		}
	}

	_, ests, ordered = OrderPipelineEst(rels, nil)
	if ordered || ests != nil {
		t.Errorf("nil stats: ests %v ordered %v, want nil and false", ests, ordered)
	}
}

// TestOrderRemainingReorders: mid-pipeline, with the intermediate's
// cardinality now observed rather than estimated, the greedy tail places
// the selective probe before the wide one — and anchors its estimates on
// the observed count.
func TestOrderRemainingReorders(t *testing.T) {
	rels := []PipeRel{{Tuples: 1000}, {Tuples: 1000}, {Tuples: 1000}}
	// Declared wide-first: pair (0,1) is selectivity 1.0, (0,2) is 1/8,
	// and the remaining pairs are all 1.0.
	sel := [][]int{
		{0, 8, 1},
		{8, 0, 8},
		{1, 8, 0},
	}
	stats := statsTable(sel, nil)

	order, ests, ordered := OrderRemaining(PipeRel{Tuples: 400}, rels, []int{0}, []int{1, 2}, stats)
	if !ordered {
		t.Fatal("ordered = false with full statistics")
	}
	if want := []int{2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("reordered tail = %v, want %v", order, want)
	}
	if len(ests) != 2 {
		t.Fatalf("%d estimates for 2 steps", len(ests))
	}
	// Selectivity 1/8 of relation 2's 1000 tuples plus the uniform
	// collision baseline — the same arithmetic OrderPipelineEst reports.
	if ests[0] != 126 {
		t.Errorf("first tail estimate %v, want 126", ests[0])
	}

	// A single remaining step has nothing to reorder.
	order, ests, ordered = OrderRemaining(PipeRel{Tuples: 400}, rels, []int{0, 2}, []int{1}, stats)
	if ordered || ests != nil || !reflect.DeepEqual(order, []int{1}) {
		t.Errorf("1-step tail: order %v ests %v ordered %v, want {1}, nil, false", order, ests, ordered)
	}
}

// TestOrderRemainingFallsBack: one unknown pair among the consulted
// (done ∪ remaining, remaining) combinations keeps the current order,
// exactly as OrderPipeline falls back to declaration order; pairs wholly
// in the past are never consulted.
func TestOrderRemainingFallsBack(t *testing.T) {
	rels := []PipeRel{{Tuples: 10}, {Tuples: 20}, {Tuples: 30}, {Tuples: 40}}
	sel := [][]int{
		{0, -1, 8, 8}, // (0,1) unknown — but 1 is already consumed
		{-1, 0, 8, 8},
		{8, 8, 0, 8},
		{8, 8, 8, 0},
	}
	order, _, ordered := OrderRemaining(PipeRel{Tuples: 100}, rels, []int{0, 1}, []int{2, 3}, statsTable(sel, nil))
	if !ordered {
		t.Error("an unknown pair between two consumed sources must not matter")
	}
	if want := []int{2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}

	sel[0][2], sel[2][0] = -1, -1 // now a consulted (done, remaining) pair is unknown
	order, ests, ordered := OrderRemaining(PipeRel{Tuples: 100}, rels, []int{0, 1}, []int{2, 3}, statsTable(sel, nil))
	if ordered || ests != nil {
		t.Error("unknown consulted pair must fall back to the current order")
	}
	if want := []int{2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("fallback order = %v, want the given remaining %v", order, want)
	}
}
