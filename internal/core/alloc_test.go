package core

import (
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
