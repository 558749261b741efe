// Package alloc implements the software dynamic memory allocator of the
// paper (Sec. 3.3, "Memory allocator").
//
// OpenCL 1.2 has no in-kernel malloc, so the paper pre-allocates an array
// and serves requests from it. The Basic strategy advances a single global
// pointer with one atomic add per request, which suffers heavy contention
// under the GPU's thread parallelism. The Block strategy (the paper's
// "optimized memory allocator") grabs a whole block per work group with one
// global atomic and serves requests inside the block through a local-memory
// pointer; the block size is the tuning knob evaluated in Fig. 11.
//
// The arena does the real allocation (offsets into a pre-allocated int32
// array, mirroring OpenCL buffer indices instead of Go pointers) while
// counting the global atomics and local-memory operations each strategy
// would issue. Kernels snapshot Stats around their batch and feed the delta
// into their device accounting record. Count and FreshStats charge a run of
// equal requests in closed form without serving them — the join output is
// charged, not written — under the same Block rule as Alloc.
package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Strategy selects the allocator implementation.
type Strategy int

const (
	// Block grabs block-sized chunks with a global atomic and serves
	// requests from the chunk via a local pointer. It is the paper's
	// optimized allocator and the default.
	Block Strategy = iota
	// Basic uses one global atomic add per allocation request.
	Basic
)

// String names the strategy as in the paper's Fig. 12 ("Basic" / "Ours").
func (s Strategy) String() string {
	if s == Basic {
		return "Basic"
	}
	return "Block"
}

// WordBytes is the allocation unit: a 4-byte integer, matching the paper's
// all-int32 data layout.
const WordBytes = 4

// DefaultBlockBytes is the paper's tuned block size (Sec. 5.4: 2 KB).
const DefaultBlockBytes = 2048

// Config parameterizes an Arena.
type Config struct {
	Strategy   Strategy
	BlockBytes int // used by Block; defaulted to DefaultBlockBytes
}

// Stats counts allocator activity. GlobalAtomics are contended operations on
// the single global pointer; LocalOps are per-request local-memory updates
// (Block strategy only). WastedWords counts fragmentation at block ends.
type Stats struct {
	Allocs        int64
	Words         int64
	GlobalAtomics int64
	LocalOps      int64
	WastedWords   int64
}

// Sub returns s - t, the activity between two snapshots.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Allocs:        s.Allocs - t.Allocs,
		Words:         s.Words - t.Words,
		GlobalAtomics: s.GlobalAtomics - t.GlobalAtomics,
		LocalOps:      s.LocalOps - t.LocalOps,
		WastedWords:   s.WastedWords - t.WastedWords,
	}
}

// Add accumulates t into s.
func (s *Stats) Add(t Stats) {
	s.Allocs += t.Allocs
	s.Words += t.Words
	s.GlobalAtomics += t.GlobalAtomics
	s.LocalOps += t.LocalOps
	s.WastedWords += t.WastedWords
}

// Arena is a pre-allocated int32 array serving dynamic requests.
//
// The join's kernels only charge it — Count, and on a pool the Stats a
// worker-private Local would close with (LocalStats) folded in with Fold —
// so their arenas hold no words; Alloc and the Locals serve the reference
// kernels the tests hold those charges to.
//
// The serial entry point Alloc is not safe for concurrent use; a parallel
// phase instead hands each worker a Local view (see local.go) whose block
// grabs go through Grab, the only concurrent operation and the arena's one
// atomic instruction. Alloc never overlaps a Grab — a parallel
// phase ends at a barrier before serial allocation resumes — so it bumps
// the pointer with plain reads and writes; the global atomics of the
// paper's allocator are counted in Stats, not executed. While any Local is
// live the backing array never moves: Grab serves strictly from the
// pre-sized capacity and refuses to grow.
type Arena struct {
	// next is the bump pointer: atomic in Grab and Used, plain in the
	// serial Alloc. The first field, so 64-bit aligned for the
	// atomics on 32-bit platforms.
	next       int64
	cfg        Config
	words      []int32
	blockLeft  int // words remaining in the current block (Block strategy)
	blockWords int
	stats      Stats
	statsMu    sync.Mutex // guards stats folds from closing Locals
}

// New returns an arena with capacity for capWords int32 words. The backing
// array comes from the slab recycler with arbitrary contents — every user
// writes the words it allocates before it reads them — and goes back with
// Release. An arena of no words only counts (Count, Fold) until an Alloc
// grows it.
func New(cfg Config, capWords int) *Arena {
	a := new(Arena)
	a.Reset(cfg)
	if capWords > 0 {
		a.words = GetWords(capWords)
	}
	return a
}

// Reset makes a the arena New(cfg, 0) returns, handing its words back to
// the recycler: an arena held by value counts run after run without being
// allocated again.
func (a *Arena) Reset(cfg Config) {
	PutWords(a.words)
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	*a = Arena{cfg: cfg, blockWords: blockWordsOf(cfg)}
}

// blockWordsOf is the Block strategy's block size in words under cfg.
func blockWordsOf(cfg Config) int {
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = DefaultBlockBytes
	}
	return max(cfg.BlockBytes/WordBytes, 1)
}

// FreshStats returns the Stats of a fresh arena under cfg after m calls of
// Alloc(n), without building the arena: the charge of a morsel-private
// output arena.
func FreshStats(cfg Config, m int64, n int) Stats {
	a := Arena{cfg: cfg, blockWords: blockWordsOf(cfg)}
	a.Count(m, n)
	return a.stats
}

// Config returns the arena's configuration, its block size defaulted.
func (a *Arena) Config() Config { return a.cfg }

// Stats returns a snapshot of the allocator counters.
func (a *Arena) Stats() Stats { return a.stats }

// Used returns the number of words handed out (including block waste).
func (a *Arena) Used() int { return int(atomic.LoadInt64(&a.next)) }

// Words exposes the backing array; callers index it with offsets returned
// by Alloc, exactly as OpenCL kernels index a pre-allocated buffer.
func (a *Arena) Words() []int32 { return a.words }

// Alloc reserves n words and returns the offset of the first.
// The arena grows transparently if exhausted (the paper sizes the
// pre-allocation generously; growth keeps the library usable without
// pre-sizing while the accounting still reflects the pre-allocated design).
func (a *Arena) Alloc(n int) int32 {
	a.take(1, int64(n))
	if int(a.next) > len(a.words) {
		a.grow(int(a.next))
	}
	return int32(a.next) - int32(n)
}

// Count charges m requests of n words each — Stats, block state and bump
// pointer — exactly as m calls of Alloc(n) would, but serves none of them:
// it never touches or grows the backing array. Used counts the words, and a
// later Alloc grows the array past them.
func (a *Arena) Count(m int64, n int) {
	if m > 0 {
		a.take(m, int64(n))
	}
}

// take is the allocator's one rule, for m > 0 requests of n words each:
// Basic pays one global atomic per request, and so does a Block request
// larger than a block, which bypasses blocking. Other Block requests are
// served from the current block while they fit; the rest grab fresh blocks
// of bw/n requests, one global atomic apiece, and the tail of every block
// left behind is wasted. The bump pointer passes the requests and the waste.
func (a *Arena) take(m, n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("alloc: non-positive allocation %d", n))
	}
	s := &a.stats
	need := m * n
	s.Allocs += m
	s.Words += need
	bw := int64(a.blockWords)
	if a.cfg.Strategy == Basic || n > bw {
		s.GlobalAtomics += m
		a.blockLeft = 0
	} else {
		s.LocalOps += m
		left := int64(a.blockLeft)
		if left < need {
			fit, per := left/n, bw/n
			grabs := (m - fit + per - 1) / per
			waste := left - fit*n + (grabs-1)*(bw-per*n)
			s.GlobalAtomics += grabs
			s.WastedWords += waste
			a.next += waste
			left += grabs*bw - waste
		}
		a.blockLeft = int(left - need)
	}
	a.next += need
}

// Grab reserves n words with one atomic bump of the arena pointer — the
// "global atomic" of the paper's allocator model — and is the only
// operation safe to call concurrently. It never grows the arena: callers
// (worker Locals) run inside parallel phases where the backing array must
// stay put, so arenas are pre-sized for their worst case and exhaustion is
// a sizing bug, not a runtime condition.
func (a *Arena) Grab(n int) int32 {
	if n <= 0 {
		panic(fmt.Sprintf("alloc: non-positive grab %d", n))
	}
	end := atomic.AddInt64(&a.next, int64(n))
	if end > int64(len(a.words)) {
		panic(fmt.Sprintf("alloc: arena exhausted during parallel phase (%d of %d words); pre-size the arena", end, len(a.words)))
	}
	return int32(end - int64(n))
}

// foldStats merges a closing Local's counters into the arena totals.
func (a *Arena) foldStats(s Stats) {
	a.statsMu.Lock()
	a.stats.Add(s)
	a.statsMu.Unlock()
}

// Release hands the backing array to the slab recycler. The arena must not
// allocate or be indexed afterwards; its Stats stay readable. Releasing a
// nil arena is a no-op.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	PutWords(a.words)
	a.words = nil
}

// grow doubles the backing array until it holds n words.
func (a *Arena) grow(n int) {
	newCap := max(len(a.words)*2, 64)
	for newCap < n {
		newCap *= 2
	}
	// Both sides of the doubling go through the recycler: an arena that
	// starts small would otherwise leave every size it outgrew behind.
	w := GetWords(newCap)
	copy(w, a.words)
	PutWords(a.words)
	a.words = w
}
