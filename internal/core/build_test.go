package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"apujoin/internal/alloc"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// newTestSlot returns a slot whose owner's budget takes every record, and
// the owner, whose held gauge counts the bytes charged to it.
func newTestSlot() (*BuildSlot, *testOwner) {
	o := &testOwner{}
	o.Charge = func(n int64) bool { o.held.Add(n); return true }
	o.Uncharge = func(n int64) { o.held.Add(-n) }
	return NewBuildSlot(&o.Records), o
}

type testOwner struct {
	Records
	held atomic.Int64
}

// free frees slot as its owner's catalog does: the bytes Free returns go
// back to the budget.
func (o *testOwner) free(slot *BuildSlot) { o.held.Add(-slot.Free()) }

// runSlots runs one join three ways — with no slot, cold on a fresh slot
// (which keeps the record it builds) and warm on the same slot — fails
// unless the three Results are deep-equal and the warm run probed the
// kept table, and returns the Result. PHJ-PL' builds no shared table, so
// its runs ignore the slot: it stays empty and counts no lookup.
func runSlots(tb testing.TB, r, s rel.Relation, opt Options) *Result {
	tb.Helper()
	slot, owner := newTestSlot()
	defer owner.free(slot)
	uncached, err := Run(r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	cold, err := slot.Run(context.Background(), r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := slot.Run(context.Background(), r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(uncached, cold) {
		tb.Errorf("a cold run on a slot differs from the uncached run:\n uncached %+v\n cold     %+v", uncached, cold)
	}
	if !reflect.DeepEqual(cold, warm) {
		tb.Errorf("the warm run differs from the cold run:\n cold %+v\n warm %+v", cold, warm)
	}
	hits, misses := owner.Hits.Load(), owner.Misses.Load()
	if opt.Scheme == CoarsePL && hits+misses != 0 {
		tb.Errorf("PHJ-PL' runs looked %d times for a kept table, want none", hits+misses)
	}
	if opt.Scheme != CoarsePL && (hits != 1 || misses != 1) {
		tb.Errorf("the slot runs counted %d hits and %d misses, want 1 and 1", hits, misses)
	}
	// The three share one fold, so the order it adds the build side in is
	// checked against the order the phases ran in before the build side
	// was split out: r's passes, s's passes, the build, the probe.
	var want []string
	if opt.Algo == PHJ {
		want = append(want, fmt.Sprint("partition/", r.Len()), fmt.Sprint("partition/", s.Len()))
	}
	if opt.Scheme != CoarsePL {
		want = append(want, fmt.Sprint("build/", r.Len()), fmt.Sprint("probe/", s.Len()))
	}
	var got []string
	for _, st := range warm.Steps {
		if k := fmt.Sprint(st.Phase, "/", st.Items); len(got) == 0 || got[len(got)-1] != k {
			got = append(got, k)
		}
	}
	if opt.Scheme != BasicUnit && !slices.Equal(got, want) {
		tb.Errorf("steps recorded in the order %v, want %v", got, want)
	}
	return warm
}

// TestBuildSlotDifferential: a join's Result is the same whether its build
// side runs (no slot, or a cold slot) or is read from a kept record (a warm
// slot) — for both algorithms, every scheme, both architectures, shared and
// separate tables, with and without grouping, on one worker and on all of
// them. Among the separate-table runs are the GPU-only ones, whose table is
// the GPU's after the swap, and DD, whose tables merge.
func TestBuildSlotDifferential(t *testing.T) {
	r := rel.Gen{N: 6000, Dist: rel.LowSkew, Seed: 81}.Build()
	s := rel.Gen{N: 7000, Dist: rel.LowSkew, Seed: 82}.Probe(r, 0.8)
	want := rel.NaiveJoinCount(r, s)
	workerSets := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerSets = append(workerSets, p)
	}
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range []Scheme{CPUOnly, GPUOnly, OL, DD, PL, CoarsePL, BasicUnit} {
			for _, arch := range []Arch{Coupled, Discrete} {
				for _, separate := range []bool{false, true} {
					for _, grouping := range []bool{false, true} {
						if (scheme == CoarsePL && algo != PHJ) || (scheme == PL && (separate || arch == Discrete)) ||
							(scheme == CoarsePL && separate) || (arch == Discrete && !separate) {
							continue // invalid, or the same run as its separate twin
						}
						for _, workers := range workerSets {
							opt := Options{
								Algo: algo, Scheme: scheme, Arch: arch, SeparateTables: separate,
								Grouping: grouping, Workers: workers, Delta: 0.25, PilotItems: 1024,
								RadixTargetBytes: 512, // two radix passes
							}
							name := fmt.Sprintf("%v/%v/%v/separate=%v/grouping=%v/workers=%d", algo, scheme, arch, separate, grouping, workers)
							t.Run(name, func(t *testing.T) {
								if res := runSlots(t, r, s, opt); res.Matches != want {
									t.Fatalf("matches %d, want %d", res.Matches, want)
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestBuildSlotKeys: a record serves only runs under the configuration and
// ratios it was built with, and the first record published keeps the slot.
// A run under another key — other build ratios, another allocator — builds
// its own, reports what it would with no slot, and frees it.
func TestBuildSlotKeys(t *testing.T) {
	r := rel.Gen{N: 5000, Seed: 83}.Build()
	s := rel.Gen{N: 5000, Seed: 84}.Probe(r, 1.0)
	base := Options{Algo: PHJ, Scheme: DD, Delta: 0.25, PilotItems: 1024}
	other := base
	other.FixedBuild = sched.Ratios{0.3}
	basic := base
	basic.Alloc = alloc.Config{Strategy: alloc.Basic}

	slot, owner := newTestSlot()
	defer owner.free(slot)
	if _, err := slot.Run(context.Background(), r, s, base); err != nil {
		t.Fatal(err)
	}
	first, kept := slot.rec, owner.held.Load()
	if first == nil || kept <= 0 {
		t.Fatalf("the cold run published no record (%d bytes held)", kept)
	}
	for name, opt := range map[string]Options{"other build ratios": other, "basic allocator": basic} {
		want, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slot.Run(context.Background(), r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the run on a slot keyed otherwise differs from its uncached run", name)
		}
	}
	if hits := owner.Hits.Load(); slot.rec != first || owner.held.Load() != kept || hits != 0 {
		t.Errorf("a run under another key replaced or read the first record (hits %d, %d bytes held, %d before)", hits, owner.held.Load(), kept)
	}
}

// TestBuildSlotConcurrentColdRuns: eight cold runs on one slot at once each
// build a table; exactly one is kept, the rest go back, and all eight
// Results are the same.
func TestBuildSlotConcurrentColdRuns(t *testing.T) {
	r := rel.Gen{N: 20000, Seed: 85}.Build()
	s := rel.Gen{N: 20000, Seed: 86}.Probe(r, 1.0)
	opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.25, PilotItems: 1024}
	pool := sched.NewPool(2)
	defer pool.Close()
	opt.Pool = pool

	slot, owner := newTestSlot()
	defer owner.free(slot)
	var results [8]*Result
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := slot.Run(context.Background(), r, s, opt)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	close(start)
	wg.Wait()
	if slot.rec == nil || owner.held.Load() != slot.rec.bytes() {
		t.Fatalf("%d bytes held, want exactly one record's", owner.held.Load())
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(res, results[0]) {
			t.Errorf("run %d differs from run 0", i+1)
		}
	}
}

// TestBuildSlotFreeReturnsSlabs: Free hands the kept table's slabs to the
// recycler — the next take of the arena's size class is the arena itself —
// returns the bytes charged for it, and refuses every later record.
func TestBuildSlotFreeReturnsSlabs(t *testing.T) {
	r := rel.Gen{N: 30000, Seed: 87}.Build()
	s := rel.Gen{N: 30000, Seed: 88}.Probe(r, 1.0)
	opt := Options{Algo: SHJ, Scheme: CPUOnly}
	slot, owner := newTestSlot()
	if _, err := slot.Run(context.Background(), r, s, opt); err != nil {
		t.Fatal(err)
	}
	words := slot.rec.arena.Words()
	slab, n := unsafe.SliceData(words), len(words)
	owner.free(slot)
	if owner.held.Load() != 0 || slot.rec != nil {
		t.Fatalf("after Free: %d bytes held, record %p", owner.held.Load(), slot.rec)
	}
	got := alloc.GetWords(n)
	defer alloc.PutWords(got)
	if unsafe.SliceData(got) != slab {
		t.Error("the freed arena did not go back to the recycler")
	}
	if _, err := slot.Run(context.Background(), r, s, opt); err != nil {
		t.Fatal(err)
	}
	if owner.held.Load() != 0 || slot.rec != nil {
		t.Errorf("a freed slot took a record: %d bytes held", owner.held.Load())
	}
}

// TestBuildSlotCharges: a slot keeps a record only when its owner's budget
// takes the record's bytes, and Evict hands them back but leaves the slot
// open. A refused run, and a run whose slot is freed while its charge is
// in flight, answer as the uncached run does and keep nothing charged.
func TestBuildSlotCharges(t *testing.T) {
	r := rel.Gen{N: 8000, Seed: 89}.Build()
	s := rel.Gen{N: 8000, Seed: 90}.Probe(r, 1.0)
	opt := Options{Algo: PHJ, Scheme: DD, Delta: 0.25, PilotItems: 1024}
	want, err := Run(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	run := func(slot *BuildSlot) {
		t.Helper()
		got, err := slot.Run(context.Background(), r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("a run on a slot differs from the uncached run")
		}
	}

	slot, owner := newTestSlot()
	full := true
	owner.Charge = func(n int64) bool { return !full && owner.held.Add(n) > 0 }
	run(slot)
	if slot.rec != nil || owner.held.Load() != 0 {
		t.Fatalf("a record the budget refused was kept (%d bytes held)", owner.held.Load())
	}
	full = false
	run(slot)
	kept := owner.held.Load()
	if slot.rec == nil || kept != slot.rec.bytes() {
		t.Fatalf("the budget took %d bytes, want the record's", kept)
	}
	if n := slot.Evict(); n != kept || slot.rec != nil {
		t.Fatalf("Evict returned %d bytes, want %d, and left record %p", n, kept, slot.rec)
	}
	owner.held.Add(-kept)
	run(slot)
	if hits, misses := owner.Hits.Load(), owner.Misses.Load(); slot.rec == nil || hits != 0 || misses != 3 {
		t.Errorf("after Evict: record %p, %d hits and %d misses, want a record, 0 and 3", slot.rec, hits, misses)
	}
	owner.free(slot)

	slot, owner = newTestSlot()
	owner.Charge = func(n int64) bool {
		owner.held.Add(n)
		slot.Free() // the entry's last pin drains while the charge is in flight
		return true
	}
	run(slot)
	if slot.rec != nil || owner.held.Load() != 0 {
		t.Errorf("a slot freed during the charge kept a record (%d bytes held)", owner.held.Load())
	}
}

// BenchmarkRunWarmBuild is the layer number of a kept build side: one
// 2^18 × 2^18 PHJ-PL join cold (r's radix passes and the build phase run)
// and warm (the probe side alone, against the table a slot kept). Both
// must report the uncached run's Result.
func BenchmarkRunWarmBuild(b *testing.B) {
	r := rel.Gen{N: 1 << 18, Seed: 91}.Build()
	s := rel.Gen{N: 1 << 18, Seed: 92}.Probe(r, 1.0)
	pool := sched.NewPool(0)
	defer pool.Close()
	opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.05, PilotItems: 1 << 13, Pool: pool}
	want, err := Run(r, s, opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			var slot *BuildSlot
			if warm {
				var owner *testOwner
				slot, owner = newTestSlot()
				defer owner.free(slot)
				if _, err := slot.Run(context.Background(), r, s, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *Result
			for range b.N {
				if res, err = slot.Run(context.Background(), r, s, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !reflect.DeepEqual(res, want) {
				b.Fatalf("the %s run differs from the uncached run", name)
			}
		})
	}
}
