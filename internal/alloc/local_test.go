package alloc

import (
	"sync"
	"testing"
)

func TestLocalBlockAccounting(t *testing.T) {
	a := New(Config{Strategy: Block, BlockBytes: 64}, 1024) // 16-word blocks
	l := a.NewLocal()
	for i := 0; i < 8; i++ {
		l.Alloc(3) // 24 words: 5 served by block 1, 3 by block 2
	}
	st := l.Stats()
	if st.Allocs != 8 || st.Words != 24 {
		t.Fatalf("allocs/words %+v", st)
	}
	if st.GlobalAtomics != 2 {
		t.Fatalf("global atomics %d, want 2 block grabs", st.GlobalAtomics)
	}
	if st.LocalOps != 8 {
		t.Fatalf("local ops %d, want 8", st.LocalOps)
	}
	l.Close()
	if got := a.Stats(); got.Allocs != 8 || got.GlobalAtomics != 2 {
		t.Fatalf("folded stats %+v", got)
	}
	// 2 blocks grabbed: block1 wasted 1 word (16-15), block2 abandoned
	// with 7 left at Close.
	if got := a.Stats(); got.WastedWords != 1+7 {
		t.Fatalf("wasted %d, want 8", got.WastedWords)
	}
}

func TestLocalBasicStrategy(t *testing.T) {
	a := New(Config{Strategy: Basic}, 128)
	l := a.NewLocal()
	l.Alloc(2)
	l.Alloc(2)
	if st := l.Stats(); st.GlobalAtomics != 2 || st.LocalOps != 0 {
		t.Fatalf("basic stats %+v", st)
	}
	l.Close()
}

func TestLocalOversizedRequest(t *testing.T) {
	a := New(Config{Strategy: Block, BlockBytes: 64}, 1024)
	l := a.NewLocal()
	off := l.Alloc(100) // > 16-word block: direct grab
	if off < 0 || int(off)+100 > len(a.Words()) {
		t.Fatalf("oversized offset %d", off)
	}
	if st := l.Stats(); st.GlobalAtomics != 1 || st.LocalOps != 0 {
		t.Fatalf("oversized stats %+v", st)
	}
	l.Close()
}

// TestGrabConcurrent hammers Grab from many goroutines and checks the
// handed-out ranges are disjoint.
func TestGrabConcurrent(t *testing.T) {
	const goroutines, grabs, n = 8, 200, 3
	a := New(Config{}, goroutines*grabs*n)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(tag int32) {
			defer wg.Done()
			w := a.Words()
			for i := 0; i < grabs; i++ {
				off := a.Grab(n)
				for j := int32(0); j < n; j++ {
					w[off+j] = tag
				}
			}
		}(int32(g + 1))
	}
	wg.Wait()
	if a.Used() != goroutines*grabs*n {
		t.Fatalf("used %d", a.Used())
	}
	counts := map[int32]int{}
	for _, v := range a.Words() {
		counts[v]++
	}
	for g := 1; g <= goroutines; g++ {
		if counts[int32(g)] != grabs*n {
			t.Fatalf("goroutine %d owns %d words, want %d (overlapping grabs)", g, counts[int32(g)], grabs*n)
		}
	}
}

func TestGrabRefusesToGrow(t *testing.T) {
	a := New(Config{}, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("grab beyond capacity must panic, not grow")
		}
	}()
	a.Grab(9)
}

func TestParallelCapWords(t *testing.T) {
	cfg := Config{Strategy: Block, BlockBytes: 512} // 128-word blocks
	// 129-word chunks exceed the block: direct grabs, no blow-up.
	if got := ParallelCapWords(cfg, 1290, 129, 4); got < 1290 || got > 1290+64 {
		t.Fatalf("oversized cap %d", got)
	}
	// 33-word requests: 3 per block, 29 wasted → ~4/3 inflation.
	got := ParallelCapWords(cfg, 3300, 33, 2)
	if got < 3300*128/96 {
		t.Fatalf("cap %d does not cover block waste", got)
	}
	// It must actually be enough: serve the worst case through Locals.
	a := New(cfg, got)
	l1, l2 := a.NewLocal(), a.NewLocal()
	for served := 0; served+33 <= 3300; served += 66 {
		l1.Alloc(33)
		l2.Alloc(33)
	}
	l1.Close()
	l2.Close()
}
