package plan

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"apujoin/internal/core"
)

// turnsFP is the fingerprint the Turns tests key plans by.
func turnsFP(i int) Fingerprint { return Fingerprint{R: i} }

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
		if _, _, err := p.lookup(context.Background(), turnsFP(i), builtBy(-1)); err != nil {
			t.Fatal(err)
		}
	}
}

// runChains runs every chain of a Turns on its own goroutine and returns
// their errors.
func runChains(tu *Turns, n int) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tu.Run(i)
		}()
	}
	wg.Wait()
	return errs
}

// lookupResult is what one scripted lookup returned.
type lookupResult struct {
	built float64
	hit   bool
}

// TestTurnsLowerChainBuildsSharedPlan: chain 1 reaches a fingerprint both
// chains need while chain 0 has not; it waits for its turn, so chain 0
// builds the plan from its own data and chain 1 hits it, as in sequence.
func TestTurnsLowerChainBuildsSharedPlan(t *testing.T) {
	p := New(8)
	reached := make(chan struct{})
	got := make([]lookupResult, 2)
	tu := p.Turns(2, func(i int, pl *Planner) error {
		if i == 0 {
			<-reached
		} else {
			close(reached)
		}
		plan, hit, err := pl.lookup(context.Background(), turnsFP(1), builtBy(i))
		if err == nil {
			got[i] = lookupResult{plan.PredictedNS, hit}
		}
		return err
	})
	for i, err := range runChains(tu, 2) {
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
	}
	if want := []lookupResult{{0, false}, {0, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookups returned %+v, want %+v: chain 0 builds, chain 1 hits", got, want)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("%d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
}

// TestTurnsReplaysHitsInSequence: hits taken before a chain's turn count
// and refresh the LRU order in the sequential order, not the order they
// happened in, so a later eviction picks the victim the sequence would.
func TestTurnsReplaysHitsInSequence(t *testing.T) {
	p := New(3)
	warm(t, p, 1, 2, 3)
	gate := make(chan struct{})
	tu := p.Turns(2, func(i int, pl *Planner) error {
		fp := turnsFP(2)
		if i == 0 {
			<-gate
		} else {
			defer close(gate)
			fp = turnsFP(1)
		}
		_, hit, err := pl.lookup(context.Background(), fp, builtBy(i))
		if err == nil && !hit {
			t.Errorf("chain %d missed a resident plan", i)
		}
		return err
	})
	for i, err := range runChains(tu, 2) {
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
	}

	ref := New(3)
	warm(t, ref, 1, 2, 3, 2, 1)
	if got, want := lruOrder(p), lruOrder(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("LRU order %v, the sequential order leaves %v", got, want)
	}
	if got, want := p.Stats(), ref.Stats(); got != want {
		t.Errorf("stats %+v, the sequential order leaves %+v", got, want)
	}
}

// TestTurnsRerunsStaleChain: chain 1 hits a plan before its turn that
// chain 0's insert then evicts from a one-entry cache. In sequence chain 1
// would have missed, so it runs again in its turn and builds the plan
// itself; the cache ends as the sequence leaves it.
func TestTurnsRerunsStaleChain(t *testing.T) {
	p := New(1)
	warm(t, p, 1)
	gate := make(chan struct{})
	runs := make([]int, 2)
	got := make([]lookupResult, 2)
	tu := p.Turns(2, func(i int, pl *Planner) error {
		runs[i]++
		fp := turnsFP(1)
		if i == 0 {
			<-gate
			fp = turnsFP(2)
		} else if runs[i] == 1 {
			defer close(gate)
		}
		plan, hit, err := pl.lookup(context.Background(), fp, builtBy(i))
		if err == nil {
			got[i] = lookupResult{plan.PredictedNS, hit}
		}
		return err
	})
	for i, err := range runChains(tu, 2) {
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
	}
	if want := []int{1, 2}; !reflect.DeepEqual(runs, want) {
		t.Errorf("chains ran %v times, want %v", runs, want)
	}
	if want := []lookupResult{{0, false}, {1, false}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookups returned %+v, want %+v", got, want)
	}
	ref := New(1)
	warm(t, ref, 1, 2, 1)
	if got, want := p.Stats(), ref.Stats(); got != want {
		t.Errorf("stats %+v, the sequential order leaves %+v", got, want)
	}
}

// TestTurnsFailureAbandonsHigherChains: once chain 0 fails, chain 1's miss
// is refused rather than built — in sequence chain 1 never runs.
func TestTurnsFailureAbandonsHigherChains(t *testing.T) {
	p := New(8)
	boom := errors.New("boom")
	reached := make(chan struct{})
	tu := p.Turns(2, func(i int, pl *Planner) error {
		if i == 0 {
			<-reached
			return boom
		}
		close(reached)
		_, _, err := pl.lookup(context.Background(), turnsFP(1), builtBy(i))
		return err
	})
	errs := runChains(tu, 2)
	if !errors.Is(errs[0], boom) || !errors.Is(errs[1], errAbandoned) {
		t.Fatalf("chains returned %v, want chain 0's failure and chain 1 abandoned", errs)
	}
	if st := p.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("the abandoned chain reached the cache: %+v", st)
	}
}

// TestTurnsNestedFanOutStaysInOrder: a fan-out inside chain 1 runs ahead of
// chain 0. Its chain 1 hits a resident plan early, its chain 0 misses one
// chain 0 of the outer fan-out has yet to build; both wait for the outer
// turn, so the plan comes from the outer chain 0 and every hit counts and
// refreshes the LRU order where the sequential order puts it.
func TestTurnsNestedFanOutStaysInOrder(t *testing.T) {
	p := New(8)
	warm(t, p, 1)
	inner1Hit, outer0Go := make(chan struct{}), make(chan struct{})
	got := make([]lookupResult, 3) // outer 0, inner 0, inner 1
	record := func(k int, pl *Planner, fp int) error {
		plan, hit, err := pl.lookup(context.Background(), turnsFP(fp), builtBy(k))
		if err == nil {
			got[k] = lookupResult{plan.PredictedNS, hit}
		}
		return err
	}
	tu := p.Turns(2, func(i int, pl *Planner) error {
		if i == 0 {
			<-outer0Go
			return record(0, pl, 2)
		}
		inner := pl.Turns(2, func(j int, pl *Planner) error {
			if j == 1 {
				defer close(inner1Hit)
				return record(2, pl, 1)
			}
			<-inner1Hit
			close(outer0Go)
			return record(1, pl, 2)
		})
		return errors.Join(runChains(inner, 2)...)
	})
	for i, err := range runChains(tu, 2) {
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
	}
	if want := []lookupResult{{0, false}, {0, true}, {-1, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lookups returned %+v, want %+v", got, want)
	}
	ref := New(8)
	warm(t, ref, 1, 2, 2, 1)
	if got, want := lruOrder(p), lruOrder(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("LRU order %v, the sequential order leaves %v", got, want)
	}
	if got, want := p.Stats(), ref.Stats(); got != want {
		t.Errorf("stats %+v, the sequential order leaves %+v", got, want)
	}
}
