package alloc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOneAtomicPerAlloc(t *testing.T) {
	a := New(Config{Strategy: Basic}, 1024)
	for i := 0; i < 100; i++ {
		a.Alloc(2)
	}
	st := a.Stats()
	if st.GlobalAtomics != 100 {
		t.Fatalf("basic allocator: %d atomics for 100 allocs", st.GlobalAtomics)
	}
	if st.LocalOps != 0 {
		t.Fatalf("basic allocator used local ops: %d", st.LocalOps)
	}
}

func TestBlockAmortizesAtomics(t *testing.T) {
	a := New(Config{Strategy: Block, BlockBytes: 2048}, 1<<16)
	for i := 0; i < 1000; i++ {
		a.Alloc(2) // 8 bytes per request; 256 fit in a 2KB block
	}
	st := a.Stats()
	if st.GlobalAtomics > 8 {
		t.Fatalf("block allocator: %d global atomics for 1000 small allocs", st.GlobalAtomics)
	}
	if st.LocalOps != 1000 {
		t.Fatalf("block allocator: %d local ops, want 1000", st.LocalOps)
	}
}

func TestBlockSizeControlsContention(t *testing.T) {
	// Larger blocks → fewer global atomics (the Fig. 11 mechanism).
	var prev int64 = 1 << 62
	for _, bs := range []int{8, 64, 512, 4096} {
		a := New(Config{Strategy: Block, BlockBytes: bs}, 1<<20)
		for i := 0; i < 10000; i++ {
			a.Alloc(2)
		}
		got := a.Stats().GlobalAtomics
		if got > prev {
			t.Fatalf("block %dB: %d atomics, more than smaller block's %d", bs, got, prev)
		}
		prev = got
	}
}

func TestOffsetsNonOverlapping(t *testing.T) {
	for _, strat := range []Strategy{Basic, Block} {
		a := New(Config{Strategy: strat, BlockBytes: 64}, 16)
		type span struct{ off, n int32 }
		var spans []span
		sizes := []int{1, 3, 2, 7, 5, 16, 2, 40, 1, 1}
		for _, n := range sizes {
			off := a.Alloc(n)
			spans = append(spans, span{off, int32(n)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.off < b.off+b.n && b.off < a.off+a.n {
					t.Fatalf("%v: spans %v and %v overlap", strat, a, b)
				}
			}
		}
	}
}

func TestOffsetsNonOverlappingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		a := New(Config{Strategy: Block, BlockBytes: 128}, 8)
		last := int32(-1)
		for _, r := range raw {
			n := int(r%32) + 1
			off := a.Alloc(n)
			if off < 0 || off <= last && last >= 0 && off != last {
				// Offsets must advance (bump allocation).
			}
			if off < last {
				return false
			}
			last = off + int32(n) - 1
			w := a.Words()
			// Writable without panic:
			w[off] = 1
			w[off+int32(n)-1] = 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaGrowsPreservingContents(t *testing.T) {
	a := New(Config{Strategy: Basic}, 4)
	off := a.Alloc(2)
	a.Words()[off] = 99
	a.Alloc(1000) // forces growth
	if a.Words()[off] != 99 {
		t.Fatal("growth lost contents")
	}
	if len(a.Words()) < 1002 {
		t.Fatalf("cap %d after growth", len(a.Words()))
	}
}

func TestOversizedRequestBypassesBlock(t *testing.T) {
	a := New(Config{Strategy: Block, BlockBytes: 64}, 1024) // 16-word blocks
	a.Alloc(100)                                            // larger than a block
	st := a.Stats()
	if st.GlobalAtomics != 1 || st.LocalOps != 0 {
		t.Fatalf("oversized alloc accounting: %+v", st)
	}
}

func TestWasteTracking(t *testing.T) {
	a := New(Config{Strategy: Block, BlockBytes: 64}, 1024) // 16-word blocks
	a.Alloc(10)
	a.Alloc(10) // doesn't fit the 6 remaining words: wastes them
	if a.Stats().WastedWords != 6 {
		t.Fatalf("wasted words %d, want 6", a.Stats().WastedWords)
	}
}

func TestAllocPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}, 16).Alloc(0)
}

// TestCountMatchesAlloc holds the closed-form Count to a twin arena that
// serves every request with Alloc: after each step of a sequence that
// mixes Count and Alloc on one arena, Stats and Used must equal the twin's,
// and so must the offset each real Alloc returns. FreshStats must equal a
// fresh arena after the same requests. Basic, and Block at the default and
// at 2048-, 4-, 6- and 10-byte blocks; requests of 1, 2 and 3 words and of
// more than a 2 KB block.
func TestCountMatchesAlloc(t *testing.T) {
	cfgs := []Config{
		{Strategy: Basic},
		{Strategy: Block},
		{Strategy: Block, BlockBytes: 2048},
		{Strategy: Block, BlockBytes: 4},
		{Strategy: Block, BlockBytes: 6},
		{Strategy: Block, BlockBytes: 10},
	}
	runs := []int64{0, 1, 3, 255, 256, 257, 513}
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range cfgs {
		for _, n := range []int{1, 2, 3, 600} {
			name := fmt.Sprintf("%+v n=%d", cfg, n)
			for _, m := range runs {
				twin := New(cfg, 64)
				for range m {
					twin.Alloc(n)
				}
				if got := FreshStats(cfg, m, n); got != twin.Stats() {
					t.Fatalf("%s: FreshStats of %d requests %+v, a fresh arena's %+v", name, m, got, twin.Stats())
				}
				twin.Release()
			}
			a, twin := New(cfg, 64), New(cfg, 64)
			for step := range 40 {
				if rng.Intn(3) == 0 {
					if got, want := a.Alloc(n), twin.Alloc(n); got != want {
						t.Fatalf("%s step %d: Alloc at %d, the twin's at %d", name, step, got, want)
					}
				} else {
					m := runs[rng.Intn(len(runs))]
					a.Count(m, n)
					for range m {
						twin.Alloc(n)
					}
				}
				if a.Stats() != twin.Stats() || a.Used() != twin.Used() {
					t.Fatalf("%s step %d: %+v, %d words used; the twin %+v, %d", name, step, a.Stats(), a.Used(), twin.Stats(), twin.Used())
				}
			}
			a.Release()
			twin.Release()
		}
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Allocs: 5, Words: 10, GlobalAtomics: 2, LocalOps: 3, WastedWords: 1}
	b := Stats{Allocs: 2, Words: 4, GlobalAtomics: 1, LocalOps: 1}
	d := a.Sub(b)
	if d.Allocs != 3 || d.Words != 6 || d.GlobalAtomics != 1 || d.LocalOps != 2 || d.WastedWords != 1 {
		t.Fatalf("sub wrong: %+v", d)
	}
}
