package alloc

import "sync/atomic"

// Local is a worker-private view of an Arena for parallel kernel execution,
// mirroring the paper's optimized allocator at the work-group level: the
// worker grabs a whole block from the shared arena with one global atomic
// (Grab) and serves requests inside the block through a private pointer,
// counting one local-memory operation per request. Offsets returned by a
// Local index the parent's Words array, so structures built by different
// workers link together exactly as in the single-stream allocator.
//
// Accounting determinism: a Local's Stats depend only on its own request
// sequence (and the configured block size), never on scheduling, so a fixed
// work decomposition yields identical allocator accounting for any worker
// count. The placement of blocks within the parent arena does depend on
// scheduling, but nothing accounts for or depends on absolute offsets.
type Local struct {
	parent     *Arena
	strategy   Strategy
	blockWords int
	cur        int32 // next free offset in the current block
	left       int   // words remaining in the current block
	stats      Stats
}

// NewLocal returns a fresh worker-private view. Each parallel kernel shard
// starts with an empty block, the analogue of an OpenCL work group starting
// with an empty local pointer.
func (a *Arena) NewLocal() *Local {
	return &Local{parent: a, strategy: a.cfg.Strategy, blockWords: a.blockWords}
}

// Alloc reserves n words and returns the offset of the first, charging the
// strategy's accounting: Basic pays one global atomic per request, Block
// pays one global atomic per block plus one local op per request.
func (l *Local) Alloc(n int) int32 {
	if n <= 0 {
		panic("alloc: non-positive allocation")
	}
	l.stats.Allocs++
	l.stats.Words += int64(n)

	if l.strategy == Basic {
		l.stats.GlobalAtomics++
		return l.parent.Grab(n)
	}
	if n > l.blockWords {
		// Oversized request bypasses blocking with a direct global grab.
		l.stats.GlobalAtomics++
		return l.parent.Grab(n)
	}
	if l.left < n {
		// The remainder of the previous block is abandoned.
		l.stats.WastedWords += int64(l.left)
		l.cur = l.parent.Grab(l.blockWords)
		l.left = l.blockWords
		l.stats.GlobalAtomics++
	}
	off := l.cur
	l.cur += int32(n)
	l.left -= n
	l.stats.LocalOps++
	return off
}

// Stats returns the Local's private counters (typically fed into the
// kernel's device accounting before Close).
func (l *Local) Stats() Stats { return l.stats }

// Close abandons the current block and folds the Local's counters into the
// parent arena so run-level allocator totals cover parallel activity.
// The Local must not be used afterwards.
func (l *Local) Close() {
	l.stats.WastedWords += int64(l.left)
	l.left = 0
	l.parent.foldStats(l.stats)
	l.stats = Stats{}
}

// LocalStats returns the Stats a fresh Local under cfg folds into its
// arena on Close after m calls of Alloc(n), without building either: the
// Stats FreshStats gives, plus the tail of the last block, which Close
// abandons. Before Close the Local's own Stats are FreshStats'. Arena.Fold
// charges them to an arena.
func LocalStats(cfg Config, m int64, n int) Stats {
	a := Arena{cfg: cfg, blockWords: blockWordsOf(cfg)}
	a.Count(m, n)
	st := a.stats
	st.WastedWords += int64(a.blockLeft)
	return st
}

// Fold charges a closed Local's Stats (LocalStats) to the arena as if the
// Local had served them: its counters, and on the bump pointer the words
// its grabs took — every word it served or wasted. Like Grab, it is safe
// for concurrent use.
func (a *Arena) Fold(s Stats) {
	atomic.AddInt64(&a.next, s.Words+s.WastedWords)
	a.foldStats(s)
}

// ParallelCapWords bounds the arena words needed to serve usefulWords of
// requests (each at most maxAlloc words) through locals worker-private
// Locals, for pre-sizing arenas whose backing array must not move during a
// parallel phase. Under the Block strategy a block's tail shorter than the
// next request is stranded, so each block yields at least
// blockWords-(maxAlloc-1) useful words; requests larger than a block (and
// the whole Basic strategy) grab exactly their size.
func ParallelCapWords(cfg Config, usefulWords, maxAlloc, locals int) int {
	bw := blockWordsOf(cfg)
	total := usefulWords
	if cfg.Strategy == Block && bw >= maxAlloc {
		yield := bw - (maxAlloc - 1)
		total = int((int64(usefulWords)*int64(bw) + int64(yield) - 1) / int64(yield))
		total += locals * bw // trailing block per Local
	}
	return total + 64
}
