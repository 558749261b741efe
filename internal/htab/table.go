// Package htab implements the hash table used by the joins, after the
// layout of the paper (Sec. 3.1): an array of bucket headers, each holding
// the tuple count of the bucket and a pointer to a key list; each key-list
// node holds one distinct key and, in the paper, links a rid list with the
// record IDs of every build tuple carrying that key.
//
// The join output is counted, never written, so no rid is ever read: the
// host's key node is (key, next, rid count), and the rid lists are modelled,
// not built. Nodes live in one int32 array addressed by offsets rather than
// Go pointers, mirroring the OpenCL implementation where all dynamic
// structures are indices into a pre-allocated zero-copy buffer; the array
// holds a node per build tuple at most, and a kernel call over the tuples
// [lo,hi) places the nodes it creates from position lo on, so concurrent
// ownership shards never share a node. The paper's software allocator is
// charged, not run: the requests its key nodes and rid nodes would make go
// to an alloc.Arena that only counts them (Arena.Count, and on a pool
// alloc.LocalStats folded in with Arena.Fold), which keeps the allocator
// statistics and the table's modelled working set (BytesResident) exactly
// those of the linked table.
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
// accounts into simulated time. The build's host work is one pass: b3's
// kernel walks the key list, creates the key if it is absent and bumps its
// rid count, recording per tuple the nodes visited and whether it created
// its key, and b3 and b4 charge from those columns (B3Charge, B4Charge).
// The probe's host work is one pass too: Walk, p2's kernel, visits the
// header, walks the key list and reads the matching key's rid count,
// recording per tuple the nodes visited and the matches, and p3 and p4
// charge from those columns (P3Charge, P4Charge) the records their kernels
// filled as they walked. p4's output is counted and, under Out.Materialize,
// charged, but never written (see Out).
//
// A table that will be probed again can be sealed (Seal): each bucket's
// keys laid out as one flat run of (key, rid count) pairs, the key lists
// freed. Walk reads either layout into the same columns, so the charges and
// the simulated time do not depend on it.
package htab

import (
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// The host's key node: three int32 words in the node array.
const (
	nodeWords = 3 // [key, next, rid count]

	nodeKey   = 0
	nodeNext  = 1
	nodeCount = 2
)

// The paper's nodes, as the allocator is charged for them: a key node
// [key, ridHead, next] per distinct key and a rid node [rid, next] per
// build tuple.
const (
	keyNodeWords = 3
	ridNodeWords = 2
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

	// nodes holds the key nodes, room for one per build tuple; arena only
	// counts the paper's allocator requests.
	nodes   []int32
	arena   *alloc.Arena
	numKeys atomic.Int64 // distinct keys inserted (key nodes created)
	// bucketsPerPart is the segment width of a segmented table (see
	// InitSeg); 0 for a flat table. segShift skips the hash bits the radix
	// partitioning consumed.
	bucketsPerPart int
	segShift       uint
	partShift      uint

	// off and ent are the sealed probe layout (Seal), nil until then:
	// bucket b's keys are the (key, rid count) pairs of ent[off[b]:off[b+1]],
	// in key-list order.
	off, ent []int32
}

// Init makes t, zero or released, an empty table with nBuckets buckets
// (rounded up to a power of two) for a build side of n tuples, whose
// allocator requests are charged to arena, in place: a table held by value
// serves build after build. Its bucket function skips the low hashShift
// hash bits: the external join (data larger than the zero-copy buffer)
// pre-partitions on the low bits, so the per-pair joins must hash with the
// bits above them or most buckets would stay empty. The bucket headers and
// the node array come from the slab recycler — Count zeroed, Head filled
// with nilRef, the nodes written before they are read — and go back with
// Release.
func (t *Table) Init(nBuckets, n int, hashShift uint, arena *alloc.Arena) {
	nb := 1
	for nb < nBuckets {
		nb *= 2
	}
	*t = Table{
		nBuckets: nb,
		mask:     uint32(nb - 1),
		Count:    alloc.GetZeroed(nb),
		Head:     alloc.GetWords(nb), // every word overwritten just below
		nodes:    alloc.GetWords(nodeWords * n),
		arena:    arena,
		segShift: hashShift,
	}
	for i := range t.Head {
		t.Head[i] = nilRef
	}
}

// Moved returns a table of its own holding t's build, and leaves t holding
// nothing, as Release does, without handing a slab back: a table built in
// place (Init) moves out of its holder this way to outlive it. The moved
// table has no arena, so it holds no pointer into t's holder; it is built,
// and only sealing, probing, Bytes and Release read it.
func (t *Table) Moved() *Table {
	m := &Table{nBuckets: t.nBuckets, mask: t.mask, Count: t.Count, Head: t.Head, nodes: t.nodes,
		bucketsPerPart: t.bucketsPerPart, segShift: t.segShift, partShift: t.partShift, off: t.off, ent: t.ent}
	m.numKeys.Store(t.numKeys.Load())
	t.Count, t.Head, t.nodes, t.off, t.ent = nil, nil, nil, nil, nil
	return m
}

// NumKeys returns the number of distinct keys inserted so far.
func (t *Table) NumKeys() int64 { return t.numKeys.Load() }

// BytesResident estimates the bytes of the table touched by random accesses:
// headers plus every word the paper's allocator handed out for the key and
// rid nodes, block waste included. The cache model uses it as the
// hash-table working set.
func (t *Table) BytesResident() int64 {
	headers := int64(t.nBuckets) * 8
	nodes := int64(t.arena.Used()) * alloc.WordBytes
	return headers + nodes
}

// Bytes is what Release hands back: the bucket headers and the node array,
// or once sealed the counts and the flat layout.
func (t *Table) Bytes() int64 {
	return int64(len(t.Count)+len(t.Head)+len(t.nodes)+len(t.off)+len(t.ent)) * alloc.WordBytes
}

// Release hands the table's slabs to the recycler; the table must not be
// used afterwards. The arena is the caller's (several tables may share
// it). Releasing a nil table is a no-op.
func (t *Table) Release() {
	if t == nil {
		return
	}
	alloc.PutWords(t.Count)
	alloc.PutWords(t.Head)
	alloc.PutWords(t.nodes)
	alloc.PutWords(t.off)
	alloc.PutWords(t.ent)
	t.Count, t.Head, t.nodes, t.off, t.ent = nil, nil, nil, nil, nil
}

// Seal lays a built table out for probing, on the pool: for every bucket,
// in bucket order, the (key, rid count) pair of each key of its key list, in
// list order, with off[b] the offset in ent of bucket b's first pair. Walk
// then reads one flat run per bucket instead of chasing the key nodes — the
// same columns, so the same charges. A key lies in exactly one bucket, so a
// pair past bucket b's run never holds a key of b: Walk compares a
// bucket's first two pairs before it knows its length, which answers the
// common bucket with no data-dependent branch. ent is not padded: the
// buckets within two pairs of its end walk their run. Seal frees the key-list heads and the
// node array and keeps Count, the grouping hints. Sealing costs about two
// walks of every key list, so it pays only for a table probed more than
// once. A sealed table can only be probed (Walk) and released.
func (t *Table) Seal(p *sched.Pool) {
	nodes := t.nodes
	off := alloc.GetWords(t.nBuckets + 1)
	ent := alloc.GetWords(2 * int(t.numKeys.Load()))
	// Each morsel of buckets counts its keys' words; their prefix sums are
	// the morsels' bases. Then each morsel lays its buckets' pairs out from
	// its base and records each bucket's end: it writes only off[lo+1..hi]
	// and its own run of ent.
	bases := sched.CollectRange(p, 0, t.nBuckets, func(lo, hi int) int32 {
		var size int32
		for _, kn := range t.Head[lo:hi] {
			for ; kn != nilRef; kn = nodes[kn+nodeNext] {
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
			for kn := t.Head[b]; kn != nilRef; kn = nodes[kn+nodeNext] {
				ent[at], ent[at+1] = nodes[kn+nodeKey], nodes[kn+nodeCount]
				at += 2
			}
			off[b+1] = at
		}
	})
	alloc.PutWords(t.Head)
	alloc.PutWords(t.nodes)
	t.Head, t.nodes, t.off, t.ent = nil, nil, off, ent
}

// Merge inserts every build tuple of src into t, the merge operation
// required by separate hash tables (paper Sec. 5.2: the partial table built
// on one device is merged into the other's). src must have been built over
// the same build side and geometry as t from tuples t did not insert — the
// other device's share — so the node positions src uses are free in t and
// a key src adds to t keeps its position. It returns the accounting record
// of the paper's merge — every key node of src visited and every one of its
// rids re-inserted through the full single-tuple insert (b1..b4 fused), in
// src's key-list order — charged in closed form; the caller charges it to
// the device performing the merge.
func (t *Table) Merge(src *Table) device.Acct {
	var a device.Acct
	var created int64
	nodes, from := t.nodes, src.nodes
	for sb := 0; sb < src.nBuckets; sb++ {
		for sn := src.Head[sb]; sn != nilRef; sn = from[sn+nodeNext] {
			key, rids := from[sn+nodeKey], int64(from[sn+nodeCount])
			a.Rand[device.RegionHashTable]++
			b := t.bucketOf(key)
			t.Count[b] += int32(rids)
			// Each rid walks the key list past hops other keys, but a
			// created key: its first rid walks the whole list and links it
			// at the head, where the others find it.
			kn, hops := t.find(b, key)
			walked := rids * hops
			if kn == nilRef {
				nodes[sn+nodeKey], nodes[sn+nodeNext], nodes[sn+nodeCount] = key, t.Head[b], int32(rids)
				t.Head[b] = sn
				walked = hops
				a.Instr += instrCreateNode
				a.AtomicOps++
				t.arena.Count(1, keyNodeWords)
				created++
			} else {
				nodes[kn+nodeCount] += int32(rids)
			}
			t.arena.Count(rids, ridNodeWords)
			a.Instr += walked*instrListNode + rids*(instrVisitHeader+instrInsertRID)
			a.Rand[device.RegionHashTable] += walked + 3*rids
			a.AtomicOps += 2 * rids
			a.AtomicTargets += rids * int64(t.nBuckets)
			a.Items += rids
		}
	}
	t.numKeys.Add(created)
	return a
}

// find walks bucket b's key list for key and returns its node, or nilRef
// when the key is absent, and the nodes it passed that did not hold the key.
func (t *Table) find(b uint32, key int32) (int32, int64) {
	var hops int64
	kn := t.Head[b]
	for kn != nilRef && t.nodes[kn+nodeKey] != key {
		kn = t.nodes[kn+nodeNext]
		hops++
	}
	return kn, hops
}
