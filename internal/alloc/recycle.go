package alloc

import (
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// The word-slab recycler: the paper's Sec. 3.3 move — pre-allocate, then
// serve requests in software — applied one level above the Arena. A run's
// large []int32 slabs (arena backing arrays, step-intermediate columns,
// gather buffers, bucket headers, scatter grids, split columns) are taken
// from here and handed back when the run ends, so the next run, on any
// engine in the process, starts on memory that is already mapped instead
// of faulting in and zeroing a fresh copy.
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
// Each class is a mutex-guarded pair of LIFO lists, cur and old, aged once
// per garbage collection (old is dropped, cur becomes old), which makes
// retention the collector's rhythm, not a setting: a slab nobody took for
// two GC cycles is freed, and the runtime's forced GC every two minutes
// bounds what an idle process keeps. That is sync.Pool's rule without its
// per-P private slots, which hide a slab put on one P from a Get on another
// and so cost a join a fresh multi-megabyte slab every few runs, at random.
// The lists are process-wide on purpose — there is nothing to configure, and
// every engine and service in one process shares the same warm slabs.

// PoisonWord is what a race build fills a slab with when it is put back.
const PoisonWord int32 = 0x5A5A5A5A

const (
	// MinSlabWords is the smallest request the recycler serves (256 B)
	// and the size of class 0; anything smaller is a plain make. It is
	// small on purpose: a spilled pipeline runs many sub-joins of a few
	// hundred tuples, whose scratch, bucket headers, node arrays and
	// intermediates, made fresh, were most of its garbage. A consumer that
	// asks for at least this much gets every smaller array from the
	// recycler too.
	MinSlabWords = 1 << minShift
	minShift     = 6
	// The largest class is 7<<(minShift-2+numClasses/4-1) = 7<<28 words;
	// an Arena is indexed by int32, so nothing larger than 1<<31 is asked for.
	numClasses = 4 * (31 - minShift)
)

// sizeClass holds free slabs of exactly classWords(c) words, each as a
// pointer to its first word (the class fixes the length that rebuilds the
// slice): cur the ones put back since the last collection, old the ones put
// back during the cycle before.
type sizeClass struct {
	mu       sync.Mutex
	cur, old []*int32
}

var classes [numClasses]sizeClass

// get pops the most recently put slab, or nil when the class is empty.
func (c *sizeClass) get() *int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := pop(&c.cur); p != nil {
		return p
	}
	return pop(&c.old)
}

func pop(l *[]*int32) *int32 {
	n := len(*l)
	if n == 0 {
		return nil
	}
	p := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return p
}

func (c *sizeClass) put(p *int32) {
	c.mu.Lock()
	c.cur = append(c.cur, p)
	c.mu.Unlock()
}

// age drops the slabs that sat through a whole GC cycle untaken and starts
// the clock on the rest.
func (c *sizeClass) age() {
	c.mu.Lock()
	clear(c.old)
	c.old, c.cur = c.cur, c.old[:0]
	c.mu.Unlock()
}

// gcSentinel is an unreachable object whose finalizer runs after each
// collection and re-arms itself: the recycler's only clock.
type gcSentinel struct{ _ [16]byte }

func ageOnGC(s *gcSentinel) {
	for c := range classes {
		classes[c].age()
	}
	runtime.SetFinalizer(s, ageOnGC)
}

func init() { runtime.SetFinalizer(new(gcSentinel), ageOnGC) }

// classWords is the slab size of class c: 1, 1.25, 1.5 and 1.75 times each
// power of two from MinSlabWords up.
func classWords(c int) int { return (4 + c&3) << (minShift - 2 + c>>2) }

// classOf returns the smallest class holding n ≥ MinSlabWords words, or
// numClasses when n is beyond the largest.
func classOf(n int) int {
	shift := bits.Len(uint(n-1)) - 3 // 4<<shift < n ≤ 8<<shift
	quarters := (n + 1<<shift - 1) >> shift
	return 4*(shift-(minShift-2)) + quarters - 4
}

// take returns a slab of length n and whether it came freshly zeroed from
// the runtime rather than from a size class.
func take(n int) (w []int32, fresh bool) {
	if n < MinSlabWords {
		return make([]int32, n), true
	}
	c := classOf(n)
	if c >= numClasses {
		return make([]int32, n), true
	}
	if p := classes[c].get(); p != nil {
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
// read or write it afterwards. Slabs that did not come from a size class —
// small ones, nil, foreign capacities — are left to the garbage collector.
func PutWords(w []int32) {
	n := cap(w)
	if n < MinSlabWords {
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
	classes[c].put(&w[0])
}
