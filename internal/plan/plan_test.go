package plan

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/mem"
	"apujoin/internal/rel"
)

func testOptions() core.Options {
	return core.Options{Delta: 0.1, PilotItems: 1 << 12}
}

func testData(n int, seed int64, dist rel.Distribution, sel float64) (rel.Relation, rel.Relation) {
	r := rel.Gen{N: n, Dist: dist, Seed: seed}.Build()
	s := rel.Gen{N: n, Dist: dist, Seed: seed + 1}.Probe(r, sel)
	return r, s
}

func fpOf(n int, seed int64, dist rel.Distribution, sel float64, opt core.Options) Fingerprint {
	r, s := testData(n, seed, dist, sel)
	return OfWorkload(r, s, opt, MeasureWorkload(r, s))
}

// TestFingerprintStability: equivalent relations — same shape, sizes, skew
// and selectivity, different generation seeds — must fingerprint
// identically, while a change in any workload dimension must not.
func TestFingerprintStability(t *testing.T) {
	opt := testOptions()
	base := fpOf(1<<15, 1, rel.Uniform, 0.75, opt)
	for seed := int64(2); seed < 6; seed++ {
		if fp := fpOf(1<<15, seed, rel.Uniform, 0.75, opt); fp != base {
			t.Fatalf("seed %d changed the fingerprint:\n%+v\nvs\n%+v", seed, fp, base)
		}
	}

	variants := map[string]Fingerprint{
		"skew":        fpOf(1<<15, 1, rel.HighSkew, 0.75, opt),
		"selectivity": fpOf(1<<15, 1, rel.Uniform, 0.1, opt),
		"size":        fpOf(1<<14, 1, rel.Uniform, 0.75, opt),
	}
	for name, fp := range variants {
		if fp == base {
			t.Errorf("%s variant fingerprints like the base workload: %+v", name, base)
		}
	}

	// The three generator distributions land in the three skew buckets.
	low := fpOf(1<<15, 1, rel.LowSkew, 0.75, opt)
	high := fpOf(1<<15, 1, rel.HighSkew, 0.75, opt)
	if base.SkewBucket != 0 || low.SkewBucket != 1 || high.SkewBucket != 2 {
		t.Errorf("skew buckets uniform=%d low=%d high=%d, want 0/1/2",
			base.SkewBucket, low.SkewBucket, high.SkewBucket)
	}

	// Option knobs that shape the plan must be part of the key.
	sep := opt
	sep.SeparateTables = true
	r, s := testData(1<<15, 1, rel.Uniform, 0.75)
	w := MeasureWorkload(r, s)
	if OfWorkload(r, s, sep, w) == OfWorkload(r, s, opt, w) {
		t.Error("SeparateTables not reflected in the fingerprint")
	}
	halfCache := opt
	halfCache.Cache = mem.NewCacheModel()
	halfCache.Cache.SizeBytes /= 2
	if OfWorkload(r, s, halfCache, w) == OfWorkload(r, s, opt, w) {
		t.Error("cache model not reflected in the fingerprint")
	}
}

// TestOfWorkloadAllocations: a fingerprint is a value, and computing one
// from a measured workload allocates nothing — a warm auto query computes
// one per planned step.
func TestOfWorkloadAllocations(t *testing.T) {
	r, s := testData(1<<12, 1, rel.Uniform, 0.75)
	w := MeasureWorkload(r, s)
	opt := testOptions()
	var fp Fingerprint
	if n := testing.AllocsPerRun(100, func() { fp = OfWorkload(r, s, opt, w) }); n != 0 {
		t.Errorf("OfWorkload allocates %v times, want 0", n)
	}
	if fp.R != r.Len() || fp.S != s.Len() {
		t.Fatalf("fingerprint of %d x %d tuples, want %d x %d", fp.R, fp.S, r.Len(), s.Len())
	}
}

// TestCacheLRU: bounded capacity, least-recently-used eviction, counter
// accounting. put builds a plan on a miss; resident looks fp up with a
// build that fails, so a miss caches nothing.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	fps := make([]Fingerprint, 3)
	for i := range fps {
		fps[i] = Fingerprint{R: i + 1}
	}
	pl := &core.Plan{}
	put := func(fp Fingerprint) {
		if _, _, err := c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) { return pl, nil }); err != nil {
			t.Fatal(err)
		}
	}
	absent := errors.New("absent")
	resident := func(fp Fingerprint) bool {
		_, hit, _ := c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) { return nil, absent })
		return hit
	}

	put(fps[0])
	put(fps[1])
	if !resident(fps[0]) { // touch 0 → 1 becomes LRU
		t.Fatal("entry 0 missing before eviction")
	}
	put(fps[2]) // evicts 1
	if resident(fps[1]) {
		t.Fatal("entry 1 survived eviction of a full cache")
	}
	if !resident(fps[0]) {
		t.Fatal("recently used entry 0 was evicted")
	}
	if !resident(fps[2]) {
		t.Fatal("newest entry 2 missing")
	}

	st := c.Stats()
	if st.Capacity != 2 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want capacity 2, entries 2, evictions 1", st)
	}
	// The three puts are misses too.
	if st.Hits != 3 || st.Misses != 4 {
		t.Fatalf("stats %+v, want 3 hits, 4 misses", st)
	}
}

// TestCacheMissAllocations: a miss nobody waits on allocates its entry —
// the in-flight record that becomes the LRU node — and nothing more: the
// map is keyed by the fingerprint's hash, so it keeps no copy of the key (a
// Fingerprint is wider than the 128 bytes a Go map holds in place). A hit
// allocates nothing. The cache holds fewer fingerprints than the loop
// cycles, so every miss evicts too.
func TestCacheMissAllocations(t *testing.T) {
	c := NewCache(128)
	pl := &core.Plan{}
	build := func() (*core.Plan, error) { return pl, nil }
	fps := make([]Fingerprint, 192)
	for i := range fps {
		fps[i] = Fingerprint{R: i + 1}
	}
	next := 0
	get := func() {
		if _, _, err := c.GetOrBuild(context.Background(), fps[next%len(fps)], build); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 2 * len(fps) {
		get()
	}
	if n := testing.AllocsPerRun(len(fps), get); n > 1 {
		t.Errorf("a miss allocates %v objects, want at most 1 (its entry)", n)
	}
	hit := func() {
		if _, hit, err := c.GetOrBuild(context.Background(), fps[(next-1)%len(fps)], build); err != nil || !hit {
			t.Fatalf("hit %v, err %v", hit, err)
		}
	}
	if n := testing.AllocsPerRun(100, hit); n != 0 {
		t.Errorf("a hit allocates %v objects, want 0", n)
	}
}

// TestCacheCollisions: with every fingerprint hashed alike, all of them
// share one chain, and the cache must still serve each its own plan and
// evict as an LRU: a cycle of lookups over six fingerprints on three slots,
// with every third lookup's build failing (the first on an empty cache), is
// held lookup by lookup to a reference LRU over a slice, so entries leave
// the chain at its head, in its middle and at its tail, evicted or failed,
// and the hash leaves the map with the chain's last entry.
func TestCacheCollisions(t *testing.T) {
	defer func(h func(maphash.Seed, Fingerprint) uint64) { fpHash = h }(fpHash)
	fpHash = func(maphash.Seed, Fingerprint) uint64 { return 7 }
	c := NewCache(3)
	plans := make([]*core.Plan, 6)
	for i := range plans {
		plans[i] = &core.Plan{}
	}
	var lru []int // the reference: resident fingerprints, most recent first
	failed := errors.New("failed")
	for n, i := range []int{0, 1, 2, 0, 3, 1, 4, 2, 2, 5, 0, 3, 4, 1, 5, 5, 0, 2, 3, 4, 1, 0, 5, 2} {
		fail := n%3 == 0
		pl, hit, err := c.GetOrBuild(context.Background(), Fingerprint{R: i + 1}, func() (*core.Plan, error) {
			if fail {
				return nil, failed
			}
			return plans[i], nil
		})
		at := slices.Index(lru, i)
		switch {
		case at >= 0:
			lru = append([]int{i}, slices.Delete(lru, at, at+1)...)
		case !fail:
			lru = append([]int{i}, lru[:min(len(lru), 2)]...)
		}
		if wantHit := at >= 0; hit != wantHit || (err != nil) != (fail && !wantHit) {
			t.Fatalf("lookup %d of fingerprint %d: hit %v, err %v; want hit %v, failing build %v", n, i, hit, err, wantHit, fail)
		}
		if err == nil && pl != plans[i] {
			t.Fatalf("lookup %d of fingerprint %d served another fingerprint's plan", n, i)
		}
		chain := 0
		for e := c.entries[7]; e != nil; e = e.same {
			chain++
		}
		if len(c.entries) != min(len(lru), 1) || chain != len(lru) || c.Stats().Entries != len(lru) {
			t.Fatalf("lookup %d: %d hashes, a chain of %d, %d resident; want 1, %d, %d", n, len(c.entries), chain, c.Stats().Entries, len(lru), len(lru))
		}
	}
}

// TestCacheConcurrent: hammer one cache from many goroutines across a few
// fingerprints with a capacity that forces constant eviction — run under
// -race in CI. Every caller must observe the plan its fingerprint maps to,
// and the build count must equal the recorded misses (concurrent misses on
// one fingerprint coalesce onto a single build).
func TestCacheConcurrent(t *testing.T) {
	const (
		workers      = 8
		perWorker    = 50
		fingerprints = 4
	)
	c := NewCache(2) // smaller than the working set: constant eviction
	var builds [fingerprints]atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w + i) % fingerprints
				fp := Fingerprint{R: k + 1}
				pl, _, err := c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) {
					builds[k].Add(1)
					return &core.Plan{PredictedNS: float64(k + 1)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if pl.PredictedNS != float64(k+1) {
					t.Errorf("fingerprint %d served plan %v", k, pl.PredictedNS)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for k := range builds {
		total += builds[k].Load()
	}
	st := c.Stats()
	if total != st.Misses {
		t.Fatalf("%d builds but %d recorded misses", total, st.Misses)
	}
	if st.Hits+st.Misses != workers*perWorker {
		t.Fatalf("hits %d + misses %d ≠ %d requests", st.Hits, st.Misses, workers*perWorker)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions with capacity below the working set")
	}
}

// TestCacheBuildError: a failed build is returned, never cached, and does
// not poison the fingerprint for later successful builds.
func TestCacheBuildError(t *testing.T) {
	c := NewCache(4)
	fp := Fingerprint{R: 1}
	boom := fmt.Errorf("boom")
	if _, _, err := c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) { return nil, boom }); err != boom {
		t.Fatalf("err %v, want %v", err, boom)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("failed build was cached")
	}
	pl, hit, err := c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) { return &core.Plan{}, nil })
	if err != nil || hit || pl == nil {
		t.Fatalf("recovery build: pl=%v hit=%v err=%v", pl, hit, err)
	}
}

// TestCacheWaitCancellation: a coalesced waiter stops waiting when its
// context is cancelled mid-build, a cancelled caller never starts a build,
// and the in-flight build still completes and serves later callers.
func TestCacheWaitCancellation(t *testing.T) {
	c := NewCache(4)
	fp := Fingerprint{R: 1}
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) {
			close(started)
			<-release
			return &core.Plan{PredictedNS: 1}, nil
		})
	}()
	<-started

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrBuild(cancelled, fp, func() (*core.Plan, error) {
		t.Error("coalesced waiter ran a build")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err %v, want context.Canceled", err)
	}
	if _, _, err := c.GetOrBuild(cancelled, Fingerprint{R: 2}, func() (*core.Plan, error) {
		t.Error("cancelled caller started a build")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled miss err %v, want context.Canceled", err)
	}

	close(release)
	pl, hit, err := c.GetOrBuild(context.Background(), fp, func() (*core.Plan, error) {
		t.Error("build re-ran after completed flight")
		return nil, nil
	})
	if err != nil || !hit || pl.PredictedNS != 1 {
		t.Fatalf("post-release lookup: pl=%+v hit=%v err=%v", pl, hit, err)
	}
}

// planOn plans r ⋈ s on c as the service layer does: the fingerprint of the
// measured workload, core.BuildPlan on a miss.
func planOn(c *Cache, r, s rel.Relation, opt core.Options) (*core.Plan, bool, error) {
	return c.GetOrBuild(context.Background(), OfWorkload(r, s, opt, MeasureWorkload(r, s)), func() (*core.Plan, error) {
		return core.BuildPlan(r, s, opt)
	})
}

// TestPlannerAmortizes: the first query of a shape misses and builds; every
// equivalent query afterwards — including ones generated from different
// seeds — hits and reuses the identical plan instance.
func TestPlannerAmortizes(t *testing.T) {
	p := NewCache(8)
	opt := testOptions()

	r1, s1 := testData(1<<14, 1, rel.Uniform, 1.0)
	pl1, hit, err := planOn(p, r1, s1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold cache reported a hit")
	}

	r2, s2 := testData(1<<14, 99, rel.Uniform, 1.0)
	pl2, hit, err := planOn(p, r2, s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("equivalent workload missed the cache")
	}
	if pl1 != pl2 {
		t.Fatal("hit returned a different plan instance")
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
}

// TestAutoPlannedBitIdentical: running a query through the planner (cache
// miss, then cache hit) yields results bit-identical to injecting an
// explicitly built plan — the cache mediation changes nothing.
func TestAutoPlannedBitIdentical(t *testing.T) {
	p := NewCache(4)
	opt := testOptions()
	r, s := testData(1<<15, 3, rel.LowSkew, 0.5)

	runWith := func(pl *core.Plan) *core.Result {
		o := opt
		o.Plan = pl
		res, err := core.Run(r, s, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plMiss, _, err := planOn(p, r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	auto := runWith(plMiss)

	plHit, hit, err := planOn(p, r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second plan lookup missed")
	}
	cached := runWith(plHit)

	explicitPlan, err := core.BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	explicit := runWith(explicitPlan)

	for _, got := range []struct {
		name string
		res  *core.Result
	}{{"cache hit", cached}, {"explicit plan", explicit}} {
		if auto.Matches != got.res.Matches ||
			auto.TotalNS != got.res.TotalNS ||
			auto.EstimatedNS != got.res.EstimatedNS ||
			!reflect.DeepEqual(auto.Breakdown, got.res.Breakdown) ||
			!reflect.DeepEqual(auto.Ratios, got.res.Ratios) {
			t.Fatalf("%s run differs from auto-planned run:\nmatches %d vs %d, total %v vs %v",
				got.name, auto.Matches, got.res.Matches, auto.TotalNS, got.res.TotalNS)
		}
	}
	if want := rel.NaiveJoinCount(r, s); auto.Matches != want {
		t.Fatalf("auto-planned run: %d matches, want %d", auto.Matches, want)
	}
}
