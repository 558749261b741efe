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
	// tasks carries batch-help closures to the resident workers; nil for
	// 1-worker pools, which execute inline and own no goroutines.
	tasks  chan func()
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
		p.tasks = make(chan func(), 4*workers)
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
		case t := <-p.tasks:
			t()
		case <-p.quit:
			return
		}
	}
}

// batch is one ForEach invocation: n pieces claimed from a shared cursor by
// the submitter and any resident workers that picked up its help offers.
type batch struct {
	next int64 // atomic claim cursor
	done int64 // atomic completed-piece count
	n    int64
	fn   func(i int)
	fin  chan struct{} // closed when done == n
}

// run claims and executes pieces until the batch is exhausted. Stale help
// offers (executed after the batch completed) claim nothing and return
// immediately.
func (b *batch) run() {
	for {
		i := atomic.AddInt64(&b.next, 1) - 1
		if i >= b.n {
			return
		}
		b.fn(int(i))
		if atomic.AddInt64(&b.done, 1) == b.n {
			close(b.fin)
		}
	}
}

// ForEach executes fn(i) for every i in [0,n), distributing indices over
// the pool's resident workers dynamically, and returns when all calls have
// finished. The completion barrier establishes the happens-before edge
// kernels rely on between parallel steps. Safe for concurrent use by many
// queries; the submitting goroutine always executes pieces itself, so
// ForEach completes even on a saturated or closed pool.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.tasks == nil || n == 1 || p.closed.Load() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := &batch{n: int64(n), fn: fn, fin: make(chan struct{})}
	// Offer help to at most workers-1 residents (the submitter is the
	// final executor, keeping total concurrency at the pool size). A full
	// offer queue means the residents are busy with other queries; the
	// batch still completes through the submitter, and whichever resident
	// frees up first drains the queue and joins in.
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
offer:
	for g := 0; g < helpers; g++ {
		select {
		case p.tasks <- b.run:
		default:
			break offer
		}
	}
	b.run()
	<-b.fin
}

// MergeAccts reduces per-piece accounting records into the record of the
// whole range. All counters sum except AtomicTargets: the pieces contend on
// the same target set (the table's buckets, a phase's key nodes), so the
// target spread of the merged batch is the largest any piece reported, not
// the sum — summing would understate contention in the device model's
// serialization term.
func MergeAccts(accts []device.Acct) device.Acct {
	var out device.Acct
	var targets int64
	for _, a := range accts {
		if a.AtomicTargets > targets {
			targets = a.AtomicTargets
		}
		a.AtomicTargets = 0
		out.Add(a)
	}
	out.AtomicTargets = targets
	return out
}

// MapRange splits [lo,hi) into the fixed MorselItems grid, executes fn over
// the morsels on the pool, and merges the per-morsel records in grid order.
func (p *Pool) MapRange(lo, hi int, fn func(mlo, mhi int) device.Acct) device.Acct {
	return MergeAccts(CollectRange(p, lo, hi, fn))
}

// MapShards executes fn once per ownership shard on the pool and merges the
// per-shard records in shard order. Kernels use it when tuples must be
// routed by structure ownership (hash bucket or partition segment) rather
// than split by range.
func (p *Pool) MapShards(shards int, fn func(shard int) device.Acct) device.Acct {
	return MergeAccts(Collect(p, shards, fn))
}

// CollectRange splits [lo,hi) into the fixed MorselItems grid, executes fn
// over the morsels on the pool, and returns the per-morsel results in grid
// order: MapRange's records, or the per-morsel match totals of the
// streamed pipeline hand-off's multiplicity pass. The
// grid — and with it the returned slice — is a pure function of [lo,hi);
// the worker count only decides which goroutine computes which entry.
func CollectRange[T any](p *Pool, lo, hi int, fn func(mlo, mhi int) T) []T {
	out := make([]T, (max(hi-lo, 0)+MorselItems-1)/MorselItems)
	p.ForEach(len(out), func(i int) {
		mlo := lo + i*MorselItems
		out[i] = fn(mlo, min(hi, mlo+MorselItems))
	})
	return out
}

// Collect executes fn once per index of a fixed n-element grid on the pool
// and returns the results in index order — the ordered fan-out the sharded
// engine's router uses to run every hash partition's sub-join and gather
// the per-partition results for the deterministic merge. Like MapRange,
// the grid and the returned slice are pure functions of n and fn; the
// worker count only decides which goroutine computes which entry. Nested
// use (fn itself running pool kernels) is safe: the submitter always
// participates, so a saturated pool degenerates to inline execution
// instead of deadlocking.
func Collect[T any](p *Pool, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	p.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
