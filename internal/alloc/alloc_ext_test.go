package alloc_test

import (
	"fmt"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/sched"
)

// TestArenaAllocAfterGrab: Grab, the one concurrent entry point, bumps the
// arena pointer atomically, and the serial Alloc with plain reads and
// writes. After a parallel phase of Locals grabbing on a pool, serial
// allocation must continue exactly where the grabs left the pointer, add
// the Stats the same requests add on a fresh arena, and overlap none of the
// grabbed words.
func TestArenaAllocAfterGrab(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	const locals, reqs = 8, 100
	for _, cfg := range []alloc.Config{{Strategy: alloc.Basic}, {Strategy: alloc.Block, BlockBytes: 64}} {
		a := alloc.New(cfg, alloc.ParallelCapWords(cfg, locals*reqs*3, 3, locals))
		clear(a.Words())
		pool.ForEach(locals, func(i int) {
			la := a.NewLocal()
			defer la.Close()
			w := a.Words()
			for range reqs {
				off := la.Alloc(3)
				w[off], w[off+1], w[off+2] = int32(i+1), int32(i+1), int32(i+1)
			}
		})
		used, grabbed := a.Used(), a.Stats()

		// The first request starts exactly where the grabs stopped; the
		// rest follow it as they follow a fresh arena's first request.
		fresh := alloc.New(cfg, 16)
		for j, n := range []int{2, 3, 2, 40, 2, 16} {
			want := used + int(fresh.Alloc(n))
			if j == 0 {
				want = used
			}
			off := a.Alloc(n)
			if int(off) != want {
				t.Fatalf("%v: serial Alloc(%d) at %d after the grabs, want %d", cfg.Strategy, n, off, want)
			}
			for j := range n {
				a.Words()[int(off)+j] = -1
			}
		}
		if d := a.Stats().Sub(grabbed); d != fresh.Stats() {
			t.Fatalf("%v: serial allocation after the grabs counted %+v, a fresh arena %+v", cfg.Strategy, d, fresh.Stats())
		}
		if a.Used() != used+fresh.Used() {
			t.Fatalf("%v: %d words used, want %d", cfg.Strategy, a.Used(), used+fresh.Used())
		}
		counts := map[int32]int{}
		for _, v := range a.Words()[:used] {
			counts[v]++
		}
		for i := range locals {
			if counts[int32(i+1)] != reqs*3 {
				t.Fatalf("%v: local %d owns %d words after serial allocation, want %d", cfg.Strategy, i, counts[int32(i+1)], reqs*3)
			}
		}
		a.Release()
		fresh.Release()
	}
}

// BenchmarkArenaAlloc measures the serial bump allocation that every
// materialized p4 pair and every single-stream table node takes: 2^20
// Alloc(2) requests per op under Basic and Block, reported as ns/alloc.
// Each op takes a fresh arena outside the timer.
func BenchmarkArenaAlloc(b *testing.B) {
	const n = 1 << 20
	for _, cfg := range []alloc.Config{{Strategy: alloc.Basic}, {Strategy: alloc.Block}} {
		b.Run(fmt.Sprint(cfg.Strategy), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := alloc.New(cfg, 2*n+64)
				b.StartTimer()
				for range n {
					a.Alloc(2)
				}
				b.StopTimer()
				a.Release()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/alloc")
		})
	}
}
