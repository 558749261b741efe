// Package htab implements the hash table used by the joins, with the exact
// layout of the paper (Sec. 3.1): an array of bucket headers, each holding
// the tuple count of the bucket and a pointer to a key list; each key-list
// node holds one distinct key and links a rid list with the record IDs of
// every build tuple carrying that key.
//
// Nodes live in an alloc.Arena and are addressed by int32 offsets rather
// than Go pointers, mirroring the OpenCL implementation where all dynamic
// structures are indices into a pre-allocated zero-copy buffer.
//
// The build and probe phases are decomposed into the paper's fine-grained
// per-tuple steps:
//
//	build: (b1) compute hash bucket number, (b2) visit the bucket header,
//	       (b3) visit the key list, creating a key node if necessary,
//	       (b4) insert the record id into the rid list.
//	probe: (p1) compute hash bucket number, (p2) visit the bucket header,
//	       (p3) visit the key list, (p4) visit matching build tuples and
//	       produce output tuples.
//
// Every step kernel does the real work on a batch [lo,hi) of tuples while
// filling a device accounting record; the co-processing schedulers split
// batches between the CPU and GPU devices and the device model converts the
// accounts into simulated time. The probe's host work is one pass: Walk,
// p2's kernel, visits the header, walks the key list and counts the rid
// list of each tuple, recording per tuple the nodes visited and the
// matches, and p3 and p4 charge from those columns (P3Charge, P4Charge) the
// records their kernels filled as they walked. p4's output is counted and,
// under Out.Materialize, charged, but never written (see Out).
//
// A table that will be probed again can be sealed (Seal): each bucket's
// keys laid out as one flat run of (key, rid count) pairs, the key lists,
// rid lists and arena freed. Walk reads either layout into the same
// columns, so the charges and the simulated time do not depend on it.
package htab

import (
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// Node layouts inside the arena (int32 words).
const (
	keyNodeWords = 3 // [key, ridHead, next]
	ridNodeWords = 2 // [rid, next]

	keyOffKey     = 0
	keyOffRIDHead = 1
	keyOffNext    = 2

	ridOffRID  = 0
	ridOffNext = 1
)

// nilRef marks an empty list head.
const nilRef = int32(-1)

// Profiled per-step instruction constants (per tuple / per list node).
// They play the role of the AMD profiler numbers the paper feeds into its
// cost model; the cost package re-derives them by probing the kernels.
const (
	instrVisitHeader = 6
	instrListNode    = 8
	instrCreateNode  = 14
	instrInsertRID   = 10
	instrEmitMatch   = 12
)

// Table is the paper's hash table.
type Table struct {
	nBuckets int
	mask     uint32
	// Bucket headers, stored as two parallel arrays ("total number of
	// tuples within that bucket and the pointer to a key list").
	Count []int32
	Head  []int32

	arena   *alloc.Arena
	numKeys atomic.Int64 // distinct keys inserted (key nodes allocated)
	// bucketsPerPart is the segment width of a segmented table (see
	// NewSeg); 0 for a flat table. segShift skips the hash bits the radix
	// partitioning consumed.
	bucketsPerPart int
	segShift       uint
	partShift      uint

	// off and ent are the sealed probe layout (Seal), nil until then:
	// bucket b's keys are the (key, rid count) pairs of ent[off[b]:off[b+1]],
	// in key-list order.
	off, ent []int32
}

// New returns an empty table with nBuckets buckets (rounded up to a power
// of two) whose nodes are allocated from arena.
func New(nBuckets int, arena *alloc.Arena) *Table {
	return NewShifted(nBuckets, 0, arena)
}

// NewShifted returns a flat table whose bucket function skips the low
// hashShift hash bits. The external join (data larger than the zero-copy
// buffer) pre-partitions on the low bits, so the per-pair joins must hash
// with the bits above them or most buckets would stay empty. The bucket
// headers come from the slab recycler — Count zeroed, Head filled with
// nilRef — and go back with Release.
func NewShifted(nBuckets int, hashShift uint, arena *alloc.Arena) *Table {
	n := 1
	for n < nBuckets {
		n *= 2
	}
	t := &Table{
		nBuckets: n,
		mask:     uint32(n - 1),
		Count:    alloc.GetZeroed(n),
		Head:     alloc.GetWords(n), // every word overwritten just below
		arena:    arena,
	}
	for i := range t.Head {
		t.Head[i] = nilRef
	}
	t.segShift = hashShift
	return t
}

// NumKeys returns the number of distinct keys inserted so far.
func (t *Table) NumKeys() int64 { return t.numKeys.Load() }

// Arena returns the backing arena (shared with the caller for accounting).
func (t *Table) Arena() *alloc.Arena { return t.arena }

// BytesResident estimates the bytes of the table touched by random accesses:
// headers plus all allocated nodes. The cache model uses it as the
// hash-table working set.
func (t *Table) BytesResident() int64 {
	headers := int64(t.nBuckets) * 8
	nodes := int64(t.arena.Used()) * alloc.WordBytes
	return headers + nodes
}

// Bytes is what Release hands back: the bucket headers, and a sealed
// table's layout. The arena is counted by its owner.
func (t *Table) Bytes() int64 {
	return int64(len(t.Count)+len(t.Head)+len(t.off)+len(t.ent)) * alloc.WordBytes
}

// Release hands the bucket headers (and a sealed table's layout) to the slab
// recycler; the table must not be used afterwards. The arena is the
// caller's to release (several tables may share it). Releasing a nil table
// is a no-op.
func (t *Table) Release() {
	if t == nil {
		return
	}
	alloc.PutWords(t.Count)
	alloc.PutWords(t.Head)
	alloc.PutWords(t.off)
	alloc.PutWords(t.ent)
	t.Count, t.Head, t.off, t.ent = nil, nil, nil, nil
}

// Seal lays a built table out for probing, on the pool: for every bucket,
// in bucket order, the (key, rid count) pair of each key of its key list, in
// list order, with off[b] the offset in ent of bucket b's first pair. Walk
// then reads one flat run per bucket instead of chasing the key and rid
// nodes — the same columns, so the same charges. Seal frees the key-list
// heads and the node arena (the table must be its arena's only user) and
// keeps Count, the grouping hints. Sealing costs about two walks of every
// key list, so it pays only for a table probed more than once. A sealed
// table can only be probed (Walk) and released.
func (t *Table) Seal(p *sched.Pool) {
	words := t.arena.Words()
	off := alloc.GetWords(t.nBuckets + 1)
	ent := alloc.GetWords(2 * int(t.numKeys.Load()))
	// Each morsel of buckets counts its keys' words; their prefix sums are
	// the morsels' bases. Then each morsel lays its buckets' pairs out from
	// its base and records each bucket's end: it writes only off[lo+1..hi]
	// and its own run of ent.
	bases := sched.CollectRange(p, 0, t.nBuckets, func(lo, hi int) int32 {
		var size int32
		for _, kn := range t.Head[lo:hi] {
			for ; kn != nilRef; kn = words[kn+keyOffNext] {
				size += 2
			}
		}
		return size
	})
	var at int32
	for m, size := range bases {
		bases[m], at = at, at+size
	}
	off[0] = 0
	p.ForEach(len(bases), func(m int) {
		lo := m * sched.MorselItems
		at := bases[m]
		for b := lo; b < min(lo+sched.MorselItems, t.nBuckets); b++ {
			// The bucket's count is its rids: the last key holds those the
			// keys before it do not, so its rid list is not walked.
			rest := t.Count[b]
			for kn := t.Head[b]; kn != nilRef; kn = words[kn+keyOffNext] {
				rids := rest
				if words[kn+keyOffNext] != nilRef {
					rids = 0
					for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
						rids++
					}
				}
				rest -= rids
				ent[at], ent[at+1] = words[kn+keyOffKey], rids
				at += 2
			}
			off[b+1] = at
		}
	})
	alloc.PutWords(t.Head)
	t.arena.Release()
	t.Head, t.off, t.ent = nil, off, ent
}

// Merge inserts every (key, rid) pair of src into t, the merge operation
// required by separate hash tables (paper Sec. 5.2: the partial table built
// on one device is merged into the other's). It returns an accounting
// record covering the traversal and re-insertion work; the caller charges
// it to the device performing the merge.
func (t *Table) Merge(src *Table) device.Acct {
	var a device.Acct
	var created int64
	words := src.arena.Words()
	for b := 0; b < src.nBuckets; b++ {
		for kn := src.Head[b]; kn != nilRef; kn = words[kn+keyOffNext] {
			key := words[kn+keyOffKey]
			a.Rand[device.RegionHashTable]++
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				rid := words[rn+ridOffRID]
				ins, c := t.insertOne(key, rid)
				a.Add(ins)
				a.Items++
				created += c
			}
		}
	}
	t.numKeys.Add(created)
	return a
}

// insertOne performs a full single-tuple insert (b1..b4 fused), used by
// Merge and InsertOne. It returns the number of key nodes it created, 0 or
// 1, for the caller to publish.
func (t *Table) insertOne(key, rid int32) (device.Acct, int64) {
	var a device.Acct
	var created int64
	words := t.arena.Words()
	b := t.bucketOf(key)
	t.Count[b]++
	a.Instr += instrVisitHeader
	a.Rand[device.RegionHashTable]++
	a.AtomicOps++

	kn := t.Head[b]
	for kn != nilRef && words[kn+keyOffKey] != key {
		kn = words[kn+keyOffNext]
		a.Instr += instrListNode
		a.Rand[device.RegionHashTable]++
	}
	if kn == nilRef {
		kn = t.newKeyNode(key, int(b))
		words = t.arena.Words()
		a.Instr += instrCreateNode
		a.AtomicOps++
		created = 1
	}
	rn := t.arena.Alloc(ridNodeWords)
	words = t.arena.Words()
	words[rn+ridOffRID] = rid
	words[rn+ridOffNext] = words[kn+keyOffRIDHead]
	words[kn+keyOffRIDHead] = rn
	a.Instr += instrInsertRID
	a.Rand[device.RegionHashTable] += 2
	a.AtomicOps++
	if a.AtomicTargets == 0 {
		a.AtomicTargets = int64(t.nBuckets)
	}
	return a, created
}

// newKeyNode allocates and links a key node at the head of bucket b. The
// caller counts the node and publishes its kernel call's total to numKeys
// once.
func (t *Table) newKeyNode(key int32, b int) int32 {
	kn := t.arena.Alloc(keyNodeWords)
	words := t.arena.Words()
	words[kn+keyOffKey] = key
	words[kn+keyOffRIDHead] = nilRef
	words[kn+keyOffNext] = t.Head[b]
	t.Head[b] = kn
	return kn
}
