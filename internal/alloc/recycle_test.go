package alloc

import "testing"

// TestSizeClasses pins the class geometry: four classes per octave from
// recycleMinWords up, every request rounded up by at most a quarter, and
// classOf the inverse of classWords.
func TestSizeClasses(t *testing.T) {
	if got := classWords(0); got != recycleMinWords {
		t.Fatalf("class 0 holds %d words, want %d", got, recycleMinWords)
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
	for c, want := range []int{1024, 1280, 1536, 1792, 2048, 2560} {
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
	for _, n := range []int{0, 1, 63, recycleMinWords - 1} {
		w := GetWords(n)
		if len(w) != n || cap(w) != n {
			t.Fatalf("GetWords(%d): len %d cap %d, want a plain make", n, len(w), cap(w))
		}
		PutWords(w) // ignored
	}
	for _, n := range []int{recycleMinWords, recycleMinWords + 1, 65600, 1 << 18} {
		w := GetWords(n)
		if len(w) != n || cap(w) != classWords(classOf(n)) {
			t.Fatalf("GetWords(%d): len %d cap %d, want len %d cap %d", n, len(w), cap(w), n, classWords(classOf(n)))
		}
		PutWords(w)
	}
	PutWords(nil)
}

// TestRecycleRoundTrip: a slab put back is the one the next request of its
// class gets, with the previous owner's contents (poisoned in race builds),
// and GetZeroed clears exactly that. sync.Pool drops puts at random under
// the race detector, so identity is asserted in plain builds only.
func TestRecycleRoundTrip(t *testing.T) {
	const n = 3000 // class of 3072 words, shared with no other test
	w := GetWords(n)
	for i := range w {
		w[i] = int32(i) + 1
	}
	first := &w[0]
	PutWords(w)

	again := GetWords(n - 100) // same class, shorter cut
	if !PoisonOnPut {
		if &again[0] != first {
			t.Fatal("the slab put back was not the one handed out next")
		}
		if again[0] != 1 || again[n-101] != int32(n-100) {
			t.Fatal("GetWords did not return the previous owner's contents")
		}
	} else if &again[0] == first {
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
	a := New(Config{Strategy: Basic}, recycleMinWords)
	old := &a.Words()[0]
	var offs []int32
	for i := 0; i < 3*recycleMinWords; i++ {
		off := a.Alloc(1)
		a.Words()[off] = int32(i)
		offs = append(offs, off)
	}
	if a.Cap() < 3*recycleMinWords {
		t.Fatalf("arena did not grow: cap %d", a.Cap())
	}
	for i, off := range offs {
		if a.Words()[off] != int32(i) {
			t.Fatalf("word %d lost in growth", i)
		}
	}
	if !PoisonOnPut {
		if w := GetWords(recycleMinWords); &w[0] != old {
			t.Fatal("the outgrown backing array did not go back to the recycler")
		}
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
