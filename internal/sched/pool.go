package sched

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"apujoin/internal/device"
)

// Pool is the morsel-driven parallel execution runtime: a resident set of
// host worker goroutines that execute kernel ranges split into cache-sized
// morsels (or structure-ownership shards) concurrently. A pool outlives any
// single join: the multi-query service layer creates one at startup and
// submits morsel batches from many concurrent queries into it; stand-alone
// runs create a transient pool per join and close it on return.
//
// The cardinal rule is that the work DECOMPOSITION is a pure function of
// the data — morsel grids and shard counts never depend on the worker
// count or on what other queries share the pool — and every piece's
// device.Acct is a pure function of its piece. Scheduling then only decides
// which goroutine executes which piece when, so the merged accounting (and
// with it every simulated time) is bit-identical between Workers=1,
// Workers=N, and N queries interleaving on one pool; parallelism changes
// wall-clock, not the model.
//
// Concurrency/fairness model: each ForEach forms a batch whose pieces are
// claimed from a shared atomic cursor. The submitting goroutine always
// participates in its own batch, so every query makes progress even when
// the resident workers are saturated by other queries — no submission can
// starve. Resident workers drain offered batches in FIFO order, which
// interleaves concurrent queries at batch (step) granularity.
type Pool struct {
	workers int
	// tasks carries help offers to the resident workers; nil for 1-worker
	// pools, which execute inline and own no goroutines.
	tasks chan *batch
	// free holds batches no submitter or offer refers to any more, for the
	// next parallel call to reuse. Its capacity is twice the offer queue's:
	// as many batches as wait on queued offers at once, each back here when
	// its last one is taken, plus as many again for the calls running
	// meanwhile — nested ones too: a spill level's partition chains submit
	// their steps from pool pieces — so a warm pool makes no new batch.
	free   chan *batch
	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// MorselItems is the number of tuples per range morsel: 16Ki tuples keep a
// morsel's streaming footprint (a few int32 arrays) around the shared-L2
// size. It is a multiple of the GPU wavefront size, so wavefront grouping
// inside a morsel coincides with the grouping of an unsplit range and
// divergence accounting is unchanged by morselization.
const MorselItems = 1 << 14

// DefaultShards is the number of ownership shards insert-style kernels are
// split into; each of the build's shards walks its own contiguous range of
// tuples, and the partition scatter is charged as that many. More
// shards smooth skew across workers, at one dispatch and one abandoned
// allocator block apiece. The value is contractual, not a tuning knob:
// every shard allocates through a fresh worker-private alloc.Local, so the
// shard count feeds the allocator accounting and with it the simulated
// times. Fixed (worker-independent) by the determinism rule.
const DefaultShards = 16

// OwnerShards divides a power-of-two space of buckets — hash buckets or
// partitions — among DefaultShards ownership shards, fewer when there are
// fewer buckets: shard k owns the contiguous buckets b with b>>shift == k.
func OwnerShards(buckets int) (shards int, shift uint) {
	shards = min(DefaultShards, buckets)
	return shards, uint(bits.TrailingZeros(uint(buckets)) - bits.TrailingZeros(uint(shards)))
}

// NewPool returns a resident pool of the given size; workers <= 0 selects
// GOMAXPROCS. A 1-worker pool executes the same decomposition inline on the
// submitting goroutine and spawns nothing; larger pools start workers-1
// helper goroutines (the submitter is the remaining executor) that live
// until Close.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan *batch, 4*workers)
		p.free = make(chan *batch, 8*workers)
		p.quit = make(chan struct{})
		p.wg.Add(workers - 1)
		for g := 0; g < workers-1; g++ {
			go p.worker()
		}
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the resident workers and waits for them to exit. Batches in
// flight complete normally — their submitters drive them to completion even
// with no workers left — and ForEach after Close degrades to inline
// execution. Close is idempotent and safe to call concurrently.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	if !p.closed.CompareAndSwap(false, true) {
		p.wg.Wait()
		return
	}
	close(p.quit)
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case b := <-p.tasks:
			b.run()
			p.unref(b)
		case <-p.quit:
			return
		}
	}
}

// work is what a parallel call runs per piece i: each(i) for ForEach,
// shard(i) for MapShards, or morsel over the i-th MorselItems morsel of
// [lo,hi) for MapRange.
type work struct {
	each   func(i int)
	shard  func(i int) device.Acct
	morsel func(mlo, mhi int) device.Acct
	lo, hi int
}

func (w *work) piece(i int) device.Acct {
	switch {
	case w.each != nil:
		w.each(i)
		return device.Acct{}
	case w.shard != nil:
		return w.shard(i)
	}
	mlo := w.lo + i*MorselItems
	return w.morsel(mlo, min(w.hi, mlo+MorselItems))
}

// batch is one parallel call on the resident workers: n pieces claimed from
// a shared cursor by the submitter and any resident workers that picked up
// its help offers, their records folded into acc.
//
// Batches are reused. The submitter and every help offer hold a reference,
// and only the last one dropped hands the batch to the free list, so an
// offer that a worker picks up after its batch completed (a stale offer)
// still finds that batch exhausted: it claims nothing and cannot reach the
// pieces of a later call.
type batch struct {
	work
	next atomic.Int64 // claim cursor
	done atomic.Int64 // completed-piece count
	refs atomic.Int32
	n    int64

	mu  sync.Mutex
	acc device.Acct
	fin chan struct{} // receives one token when done reaches n
}

// run claims and executes pieces until the batch is exhausted, folding
// their records into a local total that joins acc once, then counts its
// pieces done. A participant that claimed nothing leaves the batch alone.
func (b *batch) run() {
	var acc device.Acct
	var k int64
	for i := b.next.Add(1) - 1; i < b.n; i = b.next.Add(1) - 1 {
		mergeAcct(&acc, b.piece(int(i)))
		k++
	}
	if k == 0 {
		return
	}
	b.mu.Lock()
	mergeAcct(&b.acc, acc)
	b.mu.Unlock()
	if b.done.Add(k) == b.n {
		b.fin <- struct{}{}
	}
}

// unref drops one reference to b, handing it to the free list when it was
// the last.
func (p *Pool) unref(b *batch) {
	if b.refs.Add(-1) != 0 {
		return
	}
	b.work, b.acc = work{}, device.Acct{}
	select {
	case p.free <- b:
	default:
	}
}

// run executes w's n pieces and returns their folded record: on the
// submitting goroutine alone when the pool has no resident to help (one
// worker, one piece, or closed), else as a batch offered to the residents.
func (p *Pool) run(n int, w work) device.Acct {
	if p == nil || p.tasks == nil || n <= 1 || p.closed.Load() {
		var acc device.Acct
		for i := range n {
			mergeAcct(&acc, w.piece(i))
		}
		return acc
	}
	var b *batch
	select {
	case b = <-p.free:
	default:
		b = &batch{fin: make(chan struct{}, 1)}
	}
	b.work, b.n = w, int64(n)
	b.next.Store(0)
	b.done.Store(0)
	// Offer help to at most workers-1 residents (the submitter is the
	// final executor, keeping total concurrency at the pool size). A full
	// offer queue means the residents are busy with other queries; the
	// batch still completes through the submitter, and whichever resident
	// frees up first drains the queue and finds it exhausted.
	helpers := min(p.workers-1, n-1)
	b.refs.Store(int32(helpers) + 1)
	offered := 0
	for offered < helpers && p.offer(b) {
		offered++
	}
	b.refs.Add(int32(offered - helpers))
	b.run()
	<-b.fin
	acc := b.acc
	p.unref(b)
	return acc
}

// offer queues a help offer for b unless the queue is full.
func (p *Pool) offer(b *batch) bool {
	select {
	case p.tasks <- b:
		return true
	default:
		return false
	}
}

// ForEach executes fn(i) for every i in [0,n), distributing indices over
// the pool's resident workers dynamically, and returns when all calls have
// finished. The completion barrier establishes the happens-before edge
// kernels rely on between parallel steps. Safe for concurrent use by many
// queries; the submitting goroutine always executes pieces itself, so
// ForEach completes even on a saturated or closed pool. It allocates
// nothing once the pool has a free batch.
func (p *Pool) ForEach(n int, fn func(i int)) { p.run(n, work{each: fn}) }

// mergeAcct folds one piece's record into out. All counters sum except
// AtomicTargets: the pieces contend on the same target set (the table's
// buckets, a phase's key nodes), so the target spread of the merged batch
// is the largest any piece reported, not the sum — summing would
// understate contention in the device model's serialization term. Integer
// sums and a max commute, so the fold order cannot change a bit.
func mergeAcct(out *device.Acct, a device.Acct) {
	targets := max(out.AtomicTargets, a.AtomicTargets)
	out.Add(a)
	out.AtomicTargets = targets
}

// MergeAccts reduces per-piece accounting records into the record of the
// whole range, as mergeAcct folds them.
func MergeAccts(accts []device.Acct) device.Acct {
	var out device.Acct
	for _, a := range accts {
		mergeAcct(&out, a)
	}
	return out
}

// MapRange splits [lo,hi) into the fixed MorselItems grid, executes fn over
// the morsels on the pool, and merges the per-morsel records. The grid is
// a pure function of [lo,hi) and the merge is order-free, so the record is
// the same on any pool; it allocates nothing once the pool has a free
// batch.
func (p *Pool) MapRange(lo, hi int, fn func(mlo, mhi int) device.Acct) device.Acct {
	return p.run((max(hi-lo, 0)+MorselItems-1)/MorselItems, work{morsel: fn, lo: lo, hi: hi})
}

// MapShards executes fn once per ownership shard on the pool and merges the
// per-shard records. Kernels use it when tuples must be
// routed by structure ownership (hash bucket or partition segment) rather
// than split by range.
func (p *Pool) MapShards(shards int, fn func(shard int) device.Acct) device.Acct {
	return p.run(shards, work{shard: fn})
}

// CollectRange splits [lo,hi) into the fixed MorselItems grid, executes fn
// over the morsels on the pool, and returns the per-morsel results in grid
// order: a sealed table's per-morsel bases. The grid — and with it the
// returned slice — is a pure function of [lo,hi); the worker count only
// decides which goroutine computes which entry.
func CollectRange[T any](p *Pool, lo, hi int, fn func(mlo, mhi int) T) []T {
	out := make([]T, (max(hi-lo, 0)+MorselItems-1)/MorselItems)
	p.ForEach(len(out), func(i int) {
		mlo := lo + i*MorselItems
		out[i] = fn(mlo, min(hi, mlo+MorselItems))
	})
	return out
}
