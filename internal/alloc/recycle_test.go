package alloc

import (
	"runtime"
	"testing"
	"time"
)

// TestSizeClasses pins the class geometry: four classes per octave from
// MinSlabWords up, every request rounded up by at most a quarter, and
// classOf the inverse of classWords.
func TestSizeClasses(t *testing.T) {
	if got := classWords(0); got != MinSlabWords {
		t.Fatalf("class 0 holds %d words, want %d", got, MinSlabWords)
	}
	for c := 0; c < numClasses; c++ {
		w := classWords(c)
		if c > 0 && w <= classWords(c-1) {
			t.Fatalf("class %d (%d words) is not larger than class %d", c, w, c-1)
		}
		if got := classOf(w); got != c {
			t.Fatalf("classOf(%d) = %d, want %d", w, got, c)
		}
		if c+1 < numClasses {
			if got := classOf(w + 1); got != c+1 {
				t.Fatalf("classOf(%d) = %d, want %d", w+1, got, c+1)
			}
		}
	}
	for c, want := range []int{64, 80, 96, 112, 128, 160} {
		if got := classWords(c); got != want {
			t.Fatalf("class %d holds %d words, want %d", c, got, want)
		}
	}
	for _, n := range []int{1024, 1025, 4097, 65600, 1 << 20, 5<<20 + 7, 3 << 28} {
		w := classWords(classOf(n))
		if w < n || 4*w > 5*n+4 {
			t.Fatalf("request of %d words lands in a class of %d: not within 25 %%", n, w)
		}
	}
	if c := classOf(7<<28 + 1); c < numClasses {
		t.Fatalf("a request beyond the largest class got class %d", c)
	}
}

// TestGetWordsShape: a slab is cut to exactly the requested length whatever
// its class, small requests bypass the classes, and a request beyond the
// largest class is a plain make PutWords ignores.
func TestGetWordsShape(t *testing.T) {
	for _, n := range []int{0, 1, 63, MinSlabWords - 1} {
		w := GetWords(n)
		if len(w) != n || cap(w) != n {
			t.Fatalf("GetWords(%d): len %d cap %d, want a plain make", n, len(w), cap(w))
		}
		PutWords(w) // ignored
	}
	for _, n := range []int{MinSlabWords, MinSlabWords + 1, 65600, 1 << 18} {
		w := GetWords(n)
		if len(w) != n || cap(w) != classWords(classOf(n)) {
			t.Fatalf("GetWords(%d): len %d cap %d, want len %d cap %d", n, len(w), cap(w), n, classWords(classOf(n)))
		}
		PutWords(w)
	}
	PutWords(nil)
}

// TestRecycleRoundTrip: a slab put back is the one the next request of its
// class gets, with the previous owner's contents (the poison in race builds),
// and GetZeroed clears exactly that.
func TestRecycleRoundTrip(t *testing.T) {
	const n = 3000 // class of 3072 words, shared with no other test
	w := GetWords(n)
	for i := range w {
		w[i] = int32(i) + 1
	}
	first := &w[0]
	PutWords(w)

	again := GetWords(n - 100) // same class, shorter cut
	if &again[0] != first {
		t.Fatal("the slab put back was not the one handed out next")
	}
	if !PoisonOnPut {
		if again[0] != 1 || again[n-101] != int32(n-100) {
			t.Fatal("GetWords did not return the previous owner's contents")
		}
	} else {
		for i, v := range again[:cap(again)] {
			if v != PoisonWord {
				t.Fatalf("race build: word %d of a recycled slab is %#x, want the poison", i, v)
			}
		}
	}
	PutWords(again)

	z := GetZeroed(n)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed: word %d is %#x", i, v)
		}
	}
	PutWords(z)
}

// TestPutIsVisibleAcrossThreads: a slab put back by a goroutine locked to
// one OS thread is what a Get on another thread receives, every time. A
// per-P cache (sync.Pool's private slot) fails this about as often as the
// scheduler moves the second goroutine, which is what made join_large's
// alloc_mb_per_op a coin toss per run.
func TestPutIsVisibleAcrossThreads(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 5000 // class of 5120 words, shared with no other test
	type slab struct{ first *int32 }
	put, got := make(chan slab), make(chan slab)
	done := make(chan struct{})
	defer close(done)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for {
			select {
			case <-done:
				return
			case <-put:
			}
			w := GetWords(n)
			got <- slab{&w[0]}
			PutWords(w)
			got <- slab{}
		}
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < 1000; i++ {
		put <- slab{}
		theirs := <-got // the other thread holds the class's one slab…
		<-got           // …and has put it back
		w := GetWords(n)
		if &w[0] != theirs.first {
			t.Fatalf("round %d: a slab put back on another thread was not handed to this one", i)
		}
		PutWords(w)
	}
}

// retained counts the slabs the size classes hold.
func retained() int {
	total := 0
	for c := range classes {
		classes[c].mu.Lock()
		total += len(classes[c].cur) + len(classes[c].old)
		classes[c].mu.Unlock()
	}
	return total
}

// TestTwoCollectionsEmptyTheClasses: a slab survives one collection (it is
// still handed out after it) and not two with no Get in between — the
// retention rule DESIGN.md states, driven by the collector itself.
func TestTwoCollectionsEmptyTheClasses(t *testing.T) {
	const n = 9000 // class of 10240 words, shared with no other test
	c := &classes[classOf(n)]
	w := GetWords(n)
	first := &w[0]
	PutWords(w)
	c.age()
	if w = GetWords(n); &w[0] != first {
		t.Fatal("a slab was dropped after one ageing")
	}
	PutWords(w)
	c.age()
	c.age()
	if w = GetWords(n); &w[0] == first {
		t.Fatal("a slab nobody took for two ageings is still handed out")
	}
	PutWords(w)

	// The same through the real clock. The finalizer runs on its own
	// goroutine some time after a collection ends, so wait for each ageing
	// to show rather than for a fixed time.
	PutWords(GetWords(n))
	for gcs := 1; retained() > 0; gcs++ {
		if gcs > 100 {
			t.Fatalf("%d slabs still retained after %d collections with no Get", retained(), gcs-1)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestPutWordsRejectsForeignSlabs: only capacities that are exactly a class
// size are pooled; anything else — a plain make, a slab cut from the middle
// of another — would come back with the wrong length, so it is dropped.
func TestPutWordsRejectsForeignSlabs(t *testing.T) {
	const n = 7000 // class of 7168 words
	foreign := make([]int32, n)
	foreign[0] = 77
	PutWords(foreign)
	w := GetWords(n)
	if &w[0] == &foreign[0] {
		t.Fatal("a slab whose capacity is not a class size was pooled")
	}
	tail := w[10:]
	PutWords(tail) // dropped: not the start of the slab
	if again := GetWords(n - 10); &again[0] == &tail[0] {
		t.Fatal("the tail of a slab was pooled as a slab")
	}
}

// TestArenaGrowsThroughRecycler: a serial arena that outgrows its backing
// array keeps every allocated word, takes the grown array from the
// recycler and hands the outgrown one back.
func TestArenaGrowsThroughRecycler(t *testing.T) {
	a := New(Config{Strategy: Basic}, MinSlabWords)
	old := &a.Words()[0]
	var offs []int32
	for i := 0; i < 3*MinSlabWords; i++ {
		off := a.Alloc(1)
		a.Words()[off] = int32(i)
		offs = append(offs, off)
	}
	if len(a.Words()) < 3*MinSlabWords {
		t.Fatalf("arena did not grow: cap %d", len(a.Words()))
	}
	for i, off := range offs {
		if a.Words()[off] != int32(i) {
			t.Fatalf("word %d lost in growth", i)
		}
	}
	if w := GetWords(MinSlabWords); &w[0] != old {
		t.Fatal("the outgrown backing array did not go back to the recycler")
	}
	stats := a.Stats()
	a.Release()
	a.Release() // idempotent
	if a.Stats() != stats {
		t.Fatal("Release changed the arena's stats")
	}
	var none *Arena
	none.Release()
}
