package service

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// TestServedJoinAllocations holds one in-process served join — an auto
// join of two registered relations, submitted, admitted and waited for,
// its plans and its build records warm — to a ceiling of objects, unsharded
// and on four shards. Unsharded, it stays under a third of the 84 it made
// when every run built its devices, series and closures and every pooled
// step its batch; its grid of one runs inline (runPartitions). On four
// shards, a bind hands out the slices its records hold: no per-query name
// per partition entry, and no per-query slice of them (62 objects while the
// catalog looked every partition up by name). The collector is off, so that
// no allocation hides behind a collection.
func TestServedJoinAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops recycled objects at random; the counts hold in plain builds")
	}
	for _, row := range []struct {
		name    string
		shards  int
		ceiling float64
	}{{"unsharded", 0, 19}, {"shards=4", 4, 43}} {
		t.Run(row.name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			svc := New(Config{Workers: 2, MaxConcurrent: 2, Shards: row.shards})
			defer svc.Close()
			if _, err := svc.RegisterGen("r", rel.Gen{N: 1 << 15, Seed: 55}); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 1 << 15, Seed: 56}, 0.9); err != nil {
				t.Fatal(err)
			}
			spec := JoinSpec{RName: "r", SName: "s", Auto: true, Opt: core.Options{PilotItems: 1 << 12}}
			join := func() {
				q, err := svc.SubmitSpec(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := q.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			join()
			// Warm up on one P, where AllocsPerRun measures: the pools'
			// per-P caches settle a run or two after GOMAXPROCS changes.
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				join()
				join()
			}()
			got := testing.AllocsPerRun(20, join)
			if got > row.ceiling {
				t.Errorf("a served join allocates %v times, above the ceiling of %v", got, row.ceiling)
			}
			t.Logf("a served join allocates %v times (ceiling %v)", got, row.ceiling)
		})
	}
}

// TestRunPartitionsOfOne: a grid of one runs its partition on the caller —
// no dispatch, no error array, no closure — and allocates nothing; a grid of
// two dispatches both partitions and names the failing one.
func TestRunPartitionsOfOne(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	ran := 0
	fn := func(p int) error {
		ran++
		return nil
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := runPartitions(pool, 1, fn); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a grid of one allocates %v times, want 0", n)
	}
	if ran != 101 {
		t.Fatalf("fn ran %d times in 101 grids of one", ran)
	}
	boom := errors.New("boom")
	if err := runPartitions(pool, 1, func(int) error { return boom }); err != boom {
		t.Fatalf("a grid of one returned %v, want its partition's error as it is", err)
	}
	err := runPartitions(pool, 2, func(p int) error {
		if p == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != "partition 1: boom" {
		t.Fatalf("a grid of two returned %v, want partition 1's error", err)
	}
}

// TestSpilledPipelineAllocations holds a warm spilled pipeline — the depth 0
// and depth ≥ 1 shapes, plans cached — to ceilings set at what it makes:
// its PipelineResult, the query's order, partitions and merged steps, and
// none of its partition sub-joins' Results, tables, arenas, hand-offs or
// spill levels, which all come pooled (221 and 2 602 objects before they
// did). The collector is off, so that no allocation hides behind a
// collection.
func TestSpilledPipelineAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops recycled objects at random; the counts hold in plain builds")
	}
	ceilings := map[string]float64{"depth 0": 37, "depth ≥ 1": 85}
	for _, sh := range spillShapes()[:2] {
		t.Run(sh.name, func(t *testing.T) {
			svc := sh.load(t, 2)
			run := func() { sh.exec(t, svc) }
			run()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			// Warm up on one P, where AllocsPerRun measures: the pools'
			// per-P caches settle a run or two after GOMAXPROCS changes.
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				run()
				run()
			}()
			got := testing.AllocsPerRun(20, run)
			if got > ceilings[sh.name] {
				t.Errorf("a warm %s spilled pipeline allocates %v times, above the ceiling of %v", sh.name, got, ceilings[sh.name])
			}
			t.Logf("a warm %s spilled pipeline allocates %v times (ceiling %v)", sh.name, got, ceilings[sh.name])
		})
	}
}
