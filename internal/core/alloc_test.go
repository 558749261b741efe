package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// TestWarmRunAllocations holds a warm run — a planned RunKept that probes
// the build record it kept — to the objects its Result keeps: the Result,
// its step timings and, for PHJ, its partition ratios. A run on no pool
// also makes its transient pool of one. Devices, executor, cost model,
// radix pass, step series and their closures all come with a recycled
// runner, and pooled dispatch makes nothing. The relations span two
// morsels, so a pool of 2 dispatches every range step in parallel. The
// collector is off, so that no allocation hides behind a collection.
func TestWarmRunAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops recycled objects at random; the counts hold in plain builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 2 * sched.MorselItems
	r := rel.Gen{N: n, Seed: 53}.Build()
	s := rel.Gen{N: n, Seed: 54}.Probe(r, 0.9)
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, c := range []struct {
		algo    Algo
		scheme  Scheme
		pool    *sched.Pool
		ceiling float64
	}{
		{SHJ, DD, nil, 3},
		{SHJ, DD, pool, 2},
		{PHJ, PL, nil, 4},
		{PHJ, PL, pool, 3},
	} {
		opt := Options{PilotItems: 1 << 12, Workers: 1, Pool: c.pool}
		def := opt
		def.SetDefaults()
		pilot := def
		pilot.Algo = PHJ
		opt.Plan = candidatePlan(r, s, def, c.algo, c.scheme, runPilot(r, s, pilot))
		var k keeper
		run := func() {
			if _, err := k.run(r, s, opt); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		got := testing.AllocsPerRun(20, run)
		k.free()
		if k.hits != 22 || k.misses != 1 {
			t.Fatalf("%s-%s: %d hits and %d misses, want 22 warm runs after one cold", c.algo, c.scheme, k.hits, k.misses)
		}
		where := "on no pool"
		if c.pool != nil {
			where = "on a pool of 2"
		}
		if got > c.ceiling {
			t.Errorf("a warm %s-%s run %s allocates %v times, above the ceiling of %v", c.algo, c.scheme, where, got, c.ceiling)
		}
		t.Logf("a warm %s-%s run %s allocates %v times (ceiling %v)", c.algo, c.scheme, where, got, c.ceiling)
	}
}

// TestColdRunAllocations holds a cold run — RunCtx, no plan, no kept build
// side, so the pilot and the ratio searches run — to the objects its Result
// keeps: the Result and its step timings, the pilot's profiles, the chosen
// ratio vectors and, for PHJ, the list of its partition ratios; a run on no
// pool also makes its transient pool of one. Its table, arena, runner,
// pilot and search scratch all come pooled. The collector is off, so that
// no allocation hides behind a collection.
func TestColdRunAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops recycled objects at random; the counts hold in plain builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 2 * sched.MorselItems
	r := rel.Gen{N: n, Seed: 53}.Build()
	s := rel.Gen{N: n, Seed: 54}.Probe(r, 0.9)
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, p := range []*sched.Pool{nil, pool} {
			opt := Options{Algo: algo, Scheme: PL, PilotItems: 1 << 12, Workers: 1, Pool: p}
			var res *Result
			run := func() {
				var err error
				if res, err = RunCtx(context.Background(), r, s, opt); err != nil {
					t.Fatal(err)
				}
			}
			oneP(run)
			got := testing.AllocsPerRun(20, run)
			want := resultObjects(res)
			where := "on no pool"
			if p == nil {
				want++
			} else {
				where = "on a pool of 2"
			}
			if got > float64(want) {
				t.Errorf("a cold %s-PL run %s allocates %v times, above the %d objects its Result keeps", algo, where, got, want)
			}
			t.Logf("a cold %s-PL run %s allocates %v times (its Result keeps %d objects)", algo, where, got, want)
		}
	}
}

// oneP warms run up on one P, where testing.AllocsPerRun measures: the
// sync.Pools' per-P caches settle only a run or two after GOMAXPROCS
// changes, and a pooled runner or batch stranded on another P's cache
// would be made again in the measurement.
func oneP(run func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 3 {
		run()
	}
}

// resultObjects counts the heap objects a run's Result holds: itself, its
// step timings, every profile's steps and every ratio vector, and the list
// of its partition ratios.
func resultObjects(res *Result) int {
	n := 1
	for _, held := range []bool{res.Steps != nil, res.PartitionProfile.Steps != nil, res.BuildProfile.Steps != nil,
		res.ProbeProfile.Steps != nil, res.Ratios.Build != nil, res.Ratios.Probe != nil, res.Ratios.Partition != nil} {
		if held {
			n++
		}
	}
	return n + len(res.Ratios.Partition)
}
