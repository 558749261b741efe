package alloc

import (
	"math/bits"
	"sync"
	"unsafe"
)

// The word-slab recycler: the paper's Sec. 3.3 move — pre-allocate, then
// serve requests in software — applied one level above the Arena. A run's
// large []int32 slabs (arena backing arrays, step-intermediate columns,
// gather buffers, bucket headers, the owner index) are taken from here and
// handed back when the run ends, so the next run, on any engine in the
// process, starts on memory that is already mapped instead of faulting in
// and zeroing a fresh copy.
//
// The contract is "contents are arbitrary": GetWords returns whatever the
// previous owner left, so a consumer either writes every word before it
// reads any, or asks GetZeroed. Race builds enforce it: PutWords fills the
// slab with PoisonWord there (PoisonOnPut), so every test under -race runs
// on dirty memory.
//
// Slabs are size-classed at four classes per octave (a request is rounded
// up by at most 25 %) and returned cut to exactly the requested length, so
// Arena.Cap and every sizing rule read what they would from a plain make.
// Each class is one sync.Pool, which makes retention the runtime's rule,
// not a setting: a slab nobody took for two GC cycles is freed, and the
// runtime's forced GC every two minutes bounds what an idle process keeps.
// The pools are process-wide on purpose — there is nothing to configure, and
// every engine and service in one process shares the same warm slabs.

// PoisonWord is what a race build fills a slab with when it is put back.
const PoisonWord int32 = 0x5A5A5A5A

const (
	// recycleMinWords is the smallest request the recycler serves (4 KiB)
	// and the size of class 0; anything smaller is a plain make, which the
	// runtime's own size classes already recycle well.
	recycleMinWords = 1 << minShift
	minShift        = 10
	// The largest class is 7<<(minShift-2+numClasses/4-1) = 7<<28 words;
	// an Arena is indexed by int32, so nothing larger than 1<<31 is asked for.
	numClasses = 4 * (31 - minShift)
)

// pools[c] holds slabs of exactly classWords(c) words, each as a pointer to
// its first word: a pointer fits an interface without allocating, and the
// class fixes the length that rebuilds the slice.
var pools [numClasses]sync.Pool

// classWords is the slab size of class c: 1, 1.25, 1.5 and 1.75 times each
// power of two from recycleMinWords up.
func classWords(c int) int { return (4 + c&3) << (minShift - 2 + c>>2) }

// classOf returns the smallest class holding n ≥ recycleMinWords words, or
// numClasses when n is beyond the largest.
func classOf(n int) int {
	shift := bits.Len(uint(n-1)) - 3 // 4<<shift < n ≤ 8<<shift
	quarters := (n + 1<<shift - 1) >> shift
	return 4*(shift-(minShift-2)) + quarters - 4
}

// take returns a slab of length n and whether it came freshly zeroed from
// the runtime rather than from a pool.
func take(n int) (w []int32, fresh bool) {
	if n < recycleMinWords {
		return make([]int32, n), true
	}
	c := classOf(n)
	if c >= numClasses {
		return make([]int32, n), true
	}
	if p, _ := pools[c].Get().(*int32); p != nil {
		return unsafe.Slice(p, classWords(c))[:n], false
	}
	return make([]int32, n, classWords(c)), true
}

// GetWords returns a slab of n words whose contents are arbitrary: the
// caller must write every word it will read. Hand it back with PutWords
// when no goroutine can touch it any more.
func GetWords(n int) []int32 {
	w, _ := take(n)
	return w
}

// GetZeroed is GetWords for consumers that rely on zero contents.
func GetZeroed(n int) []int32 {
	w, fresh := take(n)
	if !fresh {
		clear(w)
	}
	return w
}

// PutWords hands a slab back. w must start where the slab GetWords or
// GetZeroed returned starts (reslicing its length is fine) and nothing may
// read or write it afterwards. Slabs that did not come from a pool class —
// small ones, nil, foreign capacities — are left to the garbage collector.
func PutWords(w []int32) {
	n := cap(w)
	if n < recycleMinWords {
		return
	}
	c := classOf(n)
	if c >= numClasses || classWords(c) != n {
		return
	}
	w = w[:n]
	if PoisonOnPut {
		// Doubling copies: one instrumented range write each, where a
		// word-by-word loop would cost every race test dearly.
		w[0] = PoisonWord
		for done := 1; done < n; done *= 2 {
			copy(w[done:], w[:done])
		}
	}
	pools[c].Put(&w[0])
}
