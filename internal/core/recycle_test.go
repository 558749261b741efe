package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// eachPooledSlab takes perClass slabs of every recycler class up to
// maxWords, shows each one at full capacity to visit, and puts them all
// back: what the pools hold comes out first, fresh slabs after it.
func eachPooledSlab(maxWords, perClass int, visit func(w []int32)) {
	var held [][]int32
	for n := 1024; n <= maxWords; {
		var w []int32
		for k := 0; k < perClass; k++ {
			w = alloc.GetWords(n)
			w = w[:cap(w)]
			visit(w)
			held = append(held, w)
		}
		n = cap(w) + 1 // the next class up
	}
	for _, w := range held {
		alloc.PutWords(w)
	}
}

// dirtyRecycler poisons the slabs a run can draw, so that plain builds run
// the next join on dirty memory too; race builds poison on every PutWords
// already.
func dirtyRecycler(maxWords int) {
	if alloc.PoisonOnPut {
		return
	}
	eachPooledSlab(maxWords, 4, func(w []int32) {
		for i := range w {
			w[i] = alloc.PoisonWord
		}
	})
}

// TestRecycledSlabsNeverReachResults is the recycler's contents contract
// seen from outside: a join run on fresh memory and the same join run on
// poisoned recycled slabs must return deep-equal Results — every simulated
// time, every accounting counter, every allocator statistic — for both
// algorithms, every scheme, shared and separate tables, with and without
// grouping and materialization, on one worker and on all of them. A
// consumer that reads a word it did not write (Count taken with GetWords
// instead of GetZeroed, say) fails here.
func TestRecycledSlabsNeverReachResults(t *testing.T) {
	r := rel.Gen{N: 20000, Dist: rel.LowSkew, Seed: 51}.Build()
	s := rel.Gen{N: 24000, Dist: rel.LowSkew, Seed: 52}.Probe(r, 0.8)
	want := rel.NaiveJoinCount(r, s)
	// The largest slab of these runs is a table's node array of 3 words per
	// tuple.
	maxWords := 16 * r.Len()

	workerSets := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerSets = append(workerSets, p)
	}
	schemes := []Scheme{CPUOnly, GPUOnly, OL, DD, PL, CoarsePL, BasicUnit}
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range schemes {
			if scheme == CoarsePL && algo != PHJ {
				continue
			}
			for _, separate := range []bool{false, true} {
				if separate && (scheme == PL || scheme == CoarsePL) {
					continue // PL needs the shared table; PL' builds private ones
				}
				for _, grouping := range []bool{false, true} {
					for _, countOnly := range []bool{false, true} {
						opt := Options{
							Algo: algo, Scheme: scheme, SeparateTables: separate,
							Grouping: grouping, CountOnly: countOnly,
							Delta: 0.25, PilotItems: 2048,
							// 9 radix bits: two passes, the first with a
							// recycled (zeroed) 256-partition header.
							RadixTargetBytes: 512,
						}
						name := fmt.Sprintf("%v/%v/separate=%v/grouping=%v/countOnly=%v", algo, scheme, separate, grouping, countOnly)
						for _, workers := range workerSets {
							opt.Workers = workers
							first, err := Run(r, s, opt)
							if err != nil {
								t.Fatalf("%s workers=%d: %v", name, workers, err)
							}
							if first.Matches != want {
								t.Fatalf("%s workers=%d: matches %d, want %d", name, workers, first.Matches, want)
							}
							dirtyRecycler(maxWords)
							second, err := Run(r, s, opt)
							if err != nil {
								t.Fatalf("%s workers=%d, second run: %v", name, workers, err)
							}
							if !reflect.DeepEqual(first, second) {
								t.Errorf("%s workers=%d: the result depends on what the recycled slabs held:\n first  %+v\n second %+v", name, workers, first, second)
							}
						}
					}
				}
			}
		}
	}
}

// stepCtx is a context cancelled by its k-th Done call. sched.Exec asks
// once per step boundary, so the run is cut at exactly that boundary.
type stepCtx struct {
	context.Context
	left atomic.Int32
	done chan struct{}
}

func cancelAtBoundary(k int) *stepCtx {
	c := &stepCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(int32(k))
	return c
}

func (c *stepCtx) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		close(c.done)
	}
	return c.done
}

func (c *stepCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestConcurrentReuseAndCancellation: eight goroutines run joins of three
// sizes on one shared pool, every other run cancelled at a random step
// boundary, all of them taking and returning slabs of the same recycler.
// Every run that finishes must equal the same join run alone, and once all
// have returned no pooled slab may carry a word written after it was put
// back — in race builds PutWords leaves the poison in every word, so a
// release that ran while a worker still held the slab shows as a stray
// value (and as a data race).
func TestConcurrentReuseAndCancellation(t *testing.T) {
	type job struct {
		r, s rel.Relation
		opt  Options
		want *Result
	}
	pool := sched.NewPool(0)
	defer pool.Close()
	var jobs []job
	for i, n := range []int{1 << 13, 20000, 1<<15 + 123} {
		r := rel.Gen{N: n, Seed: int64(60 + 2*i)}.Build()
		s := rel.Gen{N: n + n/3, Seed: int64(61 + 2*i)}.Probe(r, 0.9)
		opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.25, PilotItems: 2048, RadixTargetBytes: 512}
		if i == 1 {
			opt = Options{Algo: SHJ, Scheme: DD, SeparateTables: true, Delta: 0.25, PilotItems: 2048}
		}
		want, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Pool = pool
		jobs = append(jobs, job{r, s, opt, want})
	}

	const goroutines, rounds = 8, 6
	var finished, cancelled atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < rounds; round++ {
				j := jobs[(g+round)%len(jobs)]
				ctx := context.Background()
				if (g+round)%2 == 1 {
					ctx = cancelAtBoundary(1 + rng.Intn(16))
				}
				res, err := RunCtx(ctx, j.r, j.s, j.opt)
				switch {
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				case err != nil:
					t.Errorf("goroutine %d round %d: %v", g, round, err)
				case !reflect.DeepEqual(res, j.want):
					t.Errorf("goroutine %d round %d: result differs from the same join run alone:\n got  %+v\n want %+v", g, round, res, j.want)
				default:
					finished.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if finished.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d runs finished and %d were cancelled: the test needs both", finished.Load(), cancelled.Load())
	}

	if !alloc.PoisonOnPut {
		return
	}
	// A slab is either fresh from the runtime (all zero) or was poisoned
	// when it was put back.
	eachPooledSlab(16<<15, 8, func(w []int32) {
		for i, v := range w {
			if v != w[0] || (v != 0 && v != alloc.PoisonWord) {
				t.Fatalf("a pooled slab of %d words was written after it was put back: word %d is %#x, word 0 is %#x", len(w), i, v, w[0])
			}
		}
	})
}

// TestSteadyStateAllocationCeiling: once the recycler is warm, a join
// allocates a small fraction of its input — headers, closures, accounting
// records — and none of its slabs. A slab that is taken on every run and
// never released shows here, in tier-1, not only in the benchmark. The
// collector is off for the duration so that no slab is freed in between.
func TestSteadyStateAllocationCeiling(t *testing.T) {
	r := rel.Gen{N: 1 << 16, Seed: 71}.Build()
	s := rel.Gen{N: 1 << 16, Seed: 72}.Probe(r, 1.0)
	opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.1, PilotItems: 1 << 13}
	ceiling := uint64(r.Bytes()+s.Bytes()) / 4

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(r, s, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	warm := run()
	t.Logf("first run allocated %d B, a warm run %d B (input %d B, ceiling %d B)", first, warm, r.Bytes()+s.Bytes(), ceiling)
	if warm > ceiling {
		t.Fatalf("a warm 2^16 × 2^16 PHJ-PL join allocates %d B, above the ceiling of %d B (a quarter of its input): a slab is not going back to the recycler", warm, ceiling)
	}
}

// TestMonteCarloPhaseAllocatesNoRun: the Monte Carlo driver prices a phase
// under the join's static environment and executes nothing but the pilot,
// whose slabs go back. A warm call therefore allocates a few closures and
// its samples, far below |R|·4 bytes — a run's scratch slab or hash table
// taken and not released would each exceed it. An unknown
// phase is rejected before the pilot, so it allocates only its error.
func TestMonteCarloPhaseAllocatesNoRun(t *testing.T) {
	r := rel.Gen{N: 1 << 18, Seed: 73}.Build()
	s := rel.Gen{N: 1 << 18, Seed: 74}.Probe(r, 1.0)
	ceiling := uint64(r.Len()) // a quarter of |R|·4 bytes

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(opt Options, phase string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := MonteCarloPhase(r, s, opt, phase, 100, 1)
		runtime.ReadMemStats(&after)
		if (err != nil) != (phase == "bogus") {
			t.Fatalf("phase %q: err = %v", phase, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, algo := range []Algo{SHJ, PHJ} {
		opt := Options{Algo: algo, Scheme: PL, Delta: 0.1}
		allocated(opt, "build") // warms the recycler
		warm := allocated(opt, "probe")
		t.Logf("%s: a warm call allocated %d B (ceiling %d B)", algo, warm, ceiling)
		if warm > ceiling {
			t.Errorf("%s: a warm MonteCarloPhase allocates %d B, above the ceiling of %d B: it holds a run's slabs", algo, warm, ceiling)
		}
		if bogus := allocated(opt, "bogus"); bogus > 2<<10 {
			t.Errorf("%s: an unknown phase allocates %d B: it ran the pilot before rejecting the phase", algo, bogus)
		}
	}
}
