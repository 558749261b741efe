package plan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"apujoin/internal/core"
)

// fanFP is the fingerprint the FanOut tests key plans by.
func fanFP(i int) Fingerprint { return Fingerprint{R: i} }

// builtBy returns a build whose plan names the chain that built it.
func builtBy(chain int) func() (*core.Plan, error) {
	return func() (*core.Plan, error) { return &core.Plan{PredictedNS: float64(chain)}, nil }
}

// lruOrder lists the resident fingerprints' R, most recently used first.
func lruOrder(p *Planner) []int {
	p.cache.mu.Lock()
	defer p.cache.mu.Unlock()
	var out []int
	for el := p.cache.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).fp.R)
	}
	return out
}

// warm inserts plans for the given fingerprints in order.
func warm(t *testing.T, p *Planner, fps ...int) {
	t.Helper()
	for _, i := range fps {
		if _, _, err := p.lookup(context.Background(), fanFP(i), builtBy(-1)); err != nil {
			t.Fatal(err)
		}
	}
}

// inOrder is a FanOut each that runs the chains one at a time on the
// calling goroutine, in the given order: any interleaving of the concurrent
// pass, scripted.
func inOrder(order ...int) func(n int, fn func(i int)) {
	return func(n int, fn func(i int)) {
		if len(order) != n {
			panic(fmt.Sprintf("order %v for %d chains", order, n))
		}
		for _, i := range order {
			fn(i)
		}
	}
}

// lookupResult is what one scripted lookup returned.
type lookupResult struct {
	built float64
	hit   bool
}

// sameState fails the test unless p's LRU order and counters are ref's.
func sameState(t *testing.T, p, ref *Planner) {
	t.Helper()
	if got, want := lruOrder(p), lruOrder(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("LRU order %v, the sequential order leaves %v", got, want)
	}
	if got, want := p.Stats(), ref.Stats(); got != want {
		t.Errorf("stats %+v, the sequential order leaves %+v", got, want)
	}
}

// TestFanOutLowerChainBuildsSharedPlan: chain 1 reaches a fingerprint both
// chains need before chain 0 has built it; it misses on its view and runs
// again in its turn, so chain 0 builds the plan from its own data and
// chain 1 hits it, as in sequence.
func TestFanOutLowerChainBuildsSharedPlan(t *testing.T) {
	p := New(8)
	runs := make([]int, 2)
	got := make([]lookupResult, 2)
	_, err := p.FanOut(2, inOrder(1, 0), func(i int, pl *Planner) error {
		runs[i]++
		plan, hit, err := pl.lookup(context.Background(), fanFP(1), builtBy(i))
		if err == nil {
			got[i] = lookupResult{plan.PredictedNS, hit}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []lookupResult{{0, false}, {0, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookups returned %+v, want %+v: chain 0 builds, chain 1 hits", got, want)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(runs, want) {
		t.Errorf("chains ran %v times, want %v", runs, want)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("%d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
}

// TestFanOutReplaysHitsInSequence: hits a view took count and refresh the
// LRU order in the sequential order, not the order they happened in, so a
// later eviction picks the victim the sequence would.
func TestFanOutReplaysHitsInSequence(t *testing.T) {
	p := New(3)
	warm(t, p, 1, 2, 3)
	_, err := p.FanOut(2, inOrder(1, 0), func(i int, pl *Planner) error {
		_, hit, err := pl.lookup(context.Background(), fanFP(2-i), builtBy(i))
		if err == nil && !hit {
			t.Errorf("chain %d missed a resident plan", i)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := New(3)
	warm(t, ref, 1, 2, 3, 2, 1)
	sameState(t, p, ref)
}

// TestFanOutRerunsStaleChain: chain 1 hits a plan on its view that chain
// 0's insert then evicts from a one-entry cache. In sequence chain 1 would
// have missed, so it runs again in its turn and builds the plan itself;
// the cache ends as the sequence leaves it.
func TestFanOutRerunsStaleChain(t *testing.T) {
	p := New(1)
	warm(t, p, 1)
	runs := make([]int, 2)
	got := make([]lookupResult, 2)
	_, err := p.FanOut(2, inOrder(1, 0), func(i int, pl *Planner) error {
		runs[i]++
		plan, hit, err := pl.lookup(context.Background(), fanFP(2-i), builtBy(i))
		if err == nil {
			got[i] = lookupResult{plan.PredictedNS, hit}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(runs, want) {
		t.Errorf("chains ran %v times, want %v", runs, want)
	}
	if want := []lookupResult{{0, false}, {1, false}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookups returned %+v, want %+v", got, want)
	}
	ref := New(1)
	warm(t, ref, 1, 2, 1)
	sameState(t, p, ref)
}

// TestFanOutFailureLeavesHigherChainsUnapplied: chain 1 fails after a hit,
// so in sequence chains 2 and 3 never run. Chain 1's hit counts, as its
// lookup came before its failure; chain 2's failure and chain 3's miss
// never reach the cache, and FanOut names chain 1.
func TestFanOutFailureLeavesHigherChainsUnapplied(t *testing.T) {
	p := New(8)
	warm(t, p, 1)
	boom := errors.New("boom")
	runs := make([]int, 4)
	failed, err := p.FanOut(4, inOrder(3, 2, 1, 0), func(i int, pl *Planner) error {
		runs[i]++
		fp := 1
		if i == 3 {
			fp = 2
		}
		if _, _, err := pl.lookup(context.Background(), fanFP(fp), builtBy(i)); err != nil {
			return err
		}
		if i == 1 || i == 2 {
			return fmt.Errorf("chain %d: %w", i, boom)
		}
		return nil
	})
	if failed != 1 || !errors.Is(err, boom) || err.Error() != "chain 1: boom" {
		t.Fatalf("FanOut returned chain %d and %v, want chain 1's failure", failed, err)
	}
	if want := []int{1, 1, 1, 1}; !reflect.DeepEqual(runs, want) {
		t.Errorf("chains ran %v times, want %v: no chain above the failure runs again", runs, want)
	}
	ref := New(8)
	warm(t, ref, 1, 1, 1)
	sameState(t, p, ref)
}

// TestFanOutNestedFanOutStaysInOrder: a fan-out inside chain 1 runs ahead
// of chain 0. Its chain 1 hits a resident plan; its chain 0 misses one the
// outer chain 0 has yet to build, which ends the outer chain 1 with a miss.
// The outer chain 1 runs again in its turn, so the plan comes from the
// outer chain 0 and every hit counts and refreshes the LRU order where the
// sequential order puts it.
func TestFanOutNestedFanOutStaysInOrder(t *testing.T) {
	p := New(8)
	warm(t, p, 1)
	got := make([]lookupResult, 3) // outer 0, inner 0, inner 1
	record := func(k int, pl *Planner, fp int) error {
		plan, hit, err := pl.lookup(context.Background(), fanFP(fp), builtBy(k))
		if err == nil {
			got[k] = lookupResult{plan.PredictedNS, hit}
		}
		return err
	}
	_, err := p.FanOut(2, inOrder(1, 0), func(i int, pl *Planner) error {
		if i == 0 {
			return record(0, pl, 2)
		}
		_, err := pl.FanOut(2, inOrder(1, 0), func(j int, pl *Planner) error {
			if j == 1 {
				return record(2, pl, 1)
			}
			return record(1, pl, 2)
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []lookupResult{{0, false}, {0, true}, {-1, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookups returned %+v, want %+v", got, want)
	}
	ref := New(8)
	warm(t, ref, 1, 2, 2, 1)
	sameState(t, p, ref)
}

// TestFanOutNestedHitsJoinTheOuterRecord: every lookup of a nested fan-out
// hits on views. The inner chains' hits join the outer chain's record in
// inner chain order and are applied in the outer chain's turn, after the
// outer chain 0's.
func TestFanOutNestedHitsJoinTheOuterRecord(t *testing.T) {
	p := New(3)
	warm(t, p, 1, 2, 3)
	_, err := p.FanOut(2, inOrder(1, 0), func(i int, pl *Planner) error {
		if i == 0 {
			_, _, err := pl.lookup(context.Background(), fanFP(3), builtBy(0))
			return err
		}
		_, err := pl.FanOut(2, inOrder(1, 0), func(j int, pl *Planner) error {
			_, _, err := pl.lookup(context.Background(), fanFP(j+1), builtBy(j))
			return err
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := New(3)
	warm(t, ref, 1, 2, 3, 3, 1, 2)
	sameState(t, p, ref)
}

// chainScript is what each chain of the order tests looks up, in order:
// chains share fingerprints, seven distinct ones overflow the small
// caches, and on a warm cache chain 2 can hit both its plans before chain
// 1's insert evicts one of them.
var chainScript = [][]int{{1, 2, 3}, {2, 4, 1}, {6, 4}, {1, 7, 5}}

// runScript runs chainScript's chains through FanOut with the given each
// and returns what every chain's last run looked up; a nil each runs them
// one after another straight on p, the sequence FanOut stands for.
func runScript(t *testing.T, p *Planner, each func(int, func(int))) [][]lookupResult {
	t.Helper()
	got := make([][]lookupResult, len(chainScript))
	chain := func(i int, pl *Planner) error {
		got[i] = got[i][:0]
		for _, fp := range chainScript[i] {
			plan, hit, err := pl.lookup(context.Background(), fanFP(fp), builtBy(i))
			if err != nil {
				return err
			}
			got[i] = append(got[i], lookupResult{plan.PredictedNS, hit})
		}
		return nil
	}
	if each == nil {
		for i := range chainScript {
			if err := chain(i, p); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	if _, err := p.FanOut(len(chainScript), each, chain); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFanOutAnyOrderLeavesSequentialState runs the scripted chains in every
// order on one goroutine — reverse index order included, where a chain that
// waited for its turn would wait forever — on caches of two, four and
// eight entries, cold and warm. Every lookup must return what it returns
// when the chains run one after another, and the cache must end as that
// run leaves it.
func TestFanOutAnyOrderLeavesSequentialState(t *testing.T) {
	for _, capacity := range []int{2, 4, 8} {
		for _, warmed := range []bool{false, true} {
			fresh := func() *Planner {
				p := New(capacity)
				if warmed {
					warm(t, p, 4, 2, 6)
				}
				return p
			}
			ref := fresh()
			want := runScript(t, ref, nil)
			for _, order := range permutations(len(chainScript)) {
				p := fresh()
				got := runScript(t, p, inOrder(order...))
				name := fmt.Sprintf("capacity %d, warm %v, order %v", capacity, warmed, order)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: lookups returned %v, in sequence %v", name, got, want)
				}
				if !reflect.DeepEqual(lruOrder(p), lruOrder(ref)) || p.Stats() != ref.Stats() {
					t.Errorf("%s: cache ends %v %+v, in sequence %v %+v", name, lruOrder(p), p.Stats(), lruOrder(ref), ref.Stats())
				}
			}
		}
	}
}

// TestFanOutMissNeverEscapes: on a cold cache every chain above 0 misses on
// its view, at the top level and inside a nested fan-out, and none of those
// misses is what FanOut returns: with no failure it returns nil, and with
// chain 2 failing on every run it names chain 2's error, not chain 1's miss.
func TestFanOutMissNeverEscapes(t *testing.T) {
	boom := errors.New("boom")
	for _, failing := range []bool{false, true} {
		p := New(8)
		failed, err := p.FanOut(3, inOrder(2, 1, 0), func(i int, pl *Planner) error {
			_, err := pl.FanOut(2, inOrder(1, 0), func(j int, pl *Planner) error {
				_, _, err := pl.lookup(context.Background(), fanFP(10*i+j), builtBy(i))
				return err
			})
			if err == nil && failing && i == 2 {
				err = boom
			}
			return err
		})
		if errors.Is(err, errMiss) {
			t.Fatalf("failing %v: a miss escaped FanOut from chain %d: %v", failing, failed, err)
		}
		if failing && (failed != 2 || !errors.Is(err, boom)) {
			t.Errorf("FanOut returned chain %d and %v, want chain 2's failure", failed, err)
		}
		if !failing && err != nil {
			t.Errorf("FanOut returned chain %d and %v, want no failure", failed, err)
		}
		if st := p.Stats(); st.Misses != 6 || st.Hits != 0 {
			t.Errorf("failing %v: %d misses and %d hits, want 6 and 0", failing, st.Misses, st.Hits)
		}
	}
}

// permutations lists every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for at := range n {
			out = append(out, slices.Insert(slices.Clone(rest), at, n-1))
		}
	}
	return out
}
