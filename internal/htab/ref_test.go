package htab

import (
	"fmt"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
)

// The paper's linked table as the host built it before key nodes carried
// their rid count: key nodes [key, ridHead, next] and rid nodes [rid, next]
// served by the software allocator, linked from Head. The reference kernels
// below build and read it; the production kernels are held to them. A
// linked table is a Table made for no tuples (so with no node array) on an
// arena of real words, whose Head holds offsets into those words, so only
// the reference kernels, B1, B2 and the geometry apply to it.
const (
	keyOffKey     = 0
	keyOffRIDHead = 1
	keyOffNext    = 2

	ridOffRID  = 0
	ridOffNext = 1
)

// nodeAlloc is what the reference kernels take nodes from: the table's
// arena on a single stream, a worker's alloc.Local in an ownership shard.
type nodeAlloc interface {
	Alloc(n int) int32
	Stats() alloc.Stats
}

// b3Ref and b4Ref are b3 and b4 as they ran before b3's kernel did the
// host work of both: b3 walks the key list of each tuple's bucket, creating
// a key node from al when the key is absent, and stores the node in
// node[i]; b4 links a rid node from al into the rid list of node[i]. The
// tuples are [lo,hi) in index order, or order when non-nil — the grouped
// permutation of [lo,hi), or a shard's owner index over the build's own
// columns. Each returns the record its kernel returned, the allocator
// activity al's Stats moved.
func (t *Table) b3Ref(d *device.Device, keys, bucket, node []int32, lo, hi int, order []int32, al nodeAlloc) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	before := al.Stats()
	run := func(i int) {
		key := keys[i]
		b := bucket[i]
		words := t.arena.Words()
		var visited int32 = 1
		kn := t.Head[b]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
			visited++
		}
		if kn == nilRef {
			kn = t.newKeyNodeRef(key, int(b), al)
			a.Instr += instrCreateNode
			a.AtomicOps++ // latched head swap on the bucket
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
	}
	n := hi - lo
	if order != nil {
		n = len(order)
		for _, i := range order {
			run(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}
	a.Items = int64(n)
	a.SeqBytes = int64(n) * 12 // key, bucket number, node ref
	a.AtomicTargets = int64(t.nBuckets)
	allocDelta(&a, before, al.Stats())
	div.Flush(&a)
	return a
}

// denseRIDs returns the record IDs 0..n-1 that b4Ref links and p4Ref
// writes: relations carry no RID column, so the tests build one.
func denseRIDs(n int) []int32 {
	rids := make([]int32, n)
	for i := range rids {
		rids[i] = int32(i)
	}
	return rids
}

func (t *Table) b4Ref(rids, node []int32, lo, hi int, order []int32, al nodeAlloc) device.Acct {
	var a device.Acct
	before := al.Stats()
	link := func(i int) {
		kn := node[i]
		rn := al.Alloc(ridNodeWords)
		words := t.arena.Words()
		words[rn+ridOffRID] = rids[i]
		words[rn+ridOffNext] = words[kn+keyOffRIDHead]
		words[kn+keyOffRIDHead] = rn
	}
	n := hi - lo
	if order != nil {
		n = len(order)
		for _, i := range order {
			link(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			link(i)
		}
	}
	a.Items = int64(n)
	a.Instr = int64(n) * instrInsertRID
	a.SeqBytes = int64(n) * 8 // rid, node ref
	a.Rand[device.RegionHashTable] = int64(n) * 2
	a.AtomicOps = int64(n)
	a.AtomicTargets = max(t.numKeys.Load(), 1)
	allocDelta(&a, before, al.Stats())
	return a
}

// newKeyNodeRef allocates a key node from al, links it at the head of
// bucket b and counts it.
func (t *Table) newKeyNodeRef(key int32, b int, al nodeAlloc) int32 {
	kn := al.Alloc(keyNodeWords)
	words := t.arena.Words()
	words[kn+keyOffKey] = key
	words[kn+keyOffRIDHead] = nilRef
	words[kn+keyOffNext] = t.Head[b]
	t.Head[b] = kn
	t.numKeys.Add(1)
	return kn
}

// insertOneRef is the full single-tuple insert (b1..b4 fused) on the
// linked table, InsertOne's record without its b1 terms; insertOneRef
// with the b1 terms is the InsertOne reference.
func (t *Table) insertOneRef(key, rid int32) device.Acct {
	var a device.Acct
	b := t.bucketOf(key)
	t.Count[b]++
	a.Instr += instrVisitHeader
	a.Rand[device.RegionHashTable]++
	a.AtomicOps++
	words := t.arena.Words()
	kn := t.Head[b]
	for kn != nilRef && words[kn+keyOffKey] != key {
		kn = words[kn+keyOffNext]
		a.Instr += instrListNode
		a.Rand[device.RegionHashTable]++
	}
	if kn == nilRef {
		kn = t.newKeyNodeRef(key, int(b), t.arena)
		a.Instr += instrCreateNode
		a.AtomicOps++
	}
	rn := t.arena.Alloc(ridNodeWords)
	words = t.arena.Words()
	words[rn+ridOffRID] = rid
	words[rn+ridOffNext] = words[kn+keyOffRIDHead]
	words[kn+keyOffRIDHead] = rn
	a.Instr += instrInsertRID
	a.Rand[device.RegionHashTable] += 2
	a.AtomicOps++
	a.AtomicTargets = int64(t.nBuckets)
	return a
}

// insertOneFusedRef is InsertOne as it ran on the linked table.
func (t *Table) insertOneFusedRef(key, rid int32) device.Acct {
	a := t.insertOneRef(key, rid)
	a.Items = 1
	a.Instr += hash.InstrPerHash
	a.SeqBytes += 8
	return a
}

// mergeRef is Merge on linked tables: every (key, rid) pair of src, in
// src's bucket, key-list and rid-list order, inserted into t.
func (t *Table) mergeRef(src *Table) device.Acct {
	var a device.Acct
	words := src.arena.Words()
	for b := 0; b < src.nBuckets; b++ {
		for kn := src.Head[b]; kn != nilRef; kn = words[kn+keyOffNext] {
			key := words[kn+keyOffKey]
			a.Rand[device.RegionHashTable]++
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				a.Add(t.insertOneRef(key, words[rn+ridOffRID]))
				a.Items++
			}
		}
	}
	return a
}

// sameKeyLists reports the first bucket whose key list on a lean table
// differs from a linked table's — other keys, in another order, or other
// rid counts — or nil. Two tables with equal key lists walk, seal and probe
// alike.
func sameKeyLists(lean, linked *Table) error {
	if lean.nBuckets != linked.nBuckets {
		return fmt.Errorf("%d buckets, the reference %d", lean.nBuckets, linked.nBuckets)
	}
	words := linked.arena.Words()
	for b := range lean.nBuckets {
		kn, wn := lean.Head[b], linked.Head[b]
		for ; kn != nilRef && wn != nilRef; kn, wn = lean.nodes[kn+nodeNext], words[wn+keyOffNext] {
			var rids int32
			for rn := words[wn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				rids++
			}
			if key, count := lean.nodes[kn+nodeKey], lean.nodes[kn+nodeCount]; key != words[wn+keyOffKey] || count != rids {
				return fmt.Errorf("bucket %d holds key %d with %d rids where the reference holds key %d with %d", b, key, count, words[wn+keyOffKey], rids)
			}
		}
		if kn != wn {
			return fmt.Errorf("bucket %d holds another number of keys than the reference", b)
		}
	}
	return nil
}

// p2Ref and p3Ref are the accounted p2 and p3 kernels from before Walk did
// the probe's host work in one pass and P2Charge and P3Charge charged it:
// p2 snapshots each tuple's key-list head into head[i] and its bucket's
// tuple count into work[i] (if non-nil); p3 walks the key list from head[i]
// for the tuple's key, storing the matching key node (or -1) into node[i].
// They run on a linked table and are kept as the references the charges
// are held to.
func (t *Table) p2Ref(bucket []int32, head, work []int32, lo, hi int) device.Acct {
	var a device.Acct
	for i := lo; i < hi; i++ {
		b := bucket[i]
		head[i] = t.Head[b]
		if work != nil {
			work[i] = t.Count[b]
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8
	a.Rand[device.RegionHashTable] = n
	return a
}

func (t *Table) p3Ref(d *device.Device, keys, head []int32, node []int32, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()

	run := func(i int) {
		key := keys[i]
		var visited int32 = 1
		kn := head[i]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
			visited++
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
	}

	if order != nil {
		// order is the grouped permutation of exactly [lo,hi).
		for _, i := range order {
			run(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}

	n := int64(hi - lo)
	a.Items = n
	a.SeqBytes = n * 12
	div.Flush(&a)
	return a
}

// p4Ref and probeOneRef are p4 and ProbeOne as they were while they wrote
// the join output: every matching (buildRID, probeRID) pair of node[i]'s
// rid list is served by Alloc(2) from the output arena and written into it.
// They are kept as the reference the counting kernels are held to.
func (t *Table) p4Ref(d *device.Device, rids, node []int32, out *Out, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()
	var before alloc.Stats
	if out.Materialize && out.Arena != nil {
		before = out.Arena.Stats()
	}

	run := func(i int) {
		kn := node[i]
		var matches int32
		if kn != nilRef {
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				matches++
				a.Rand[device.RegionHashTable]++
				if out.Materialize && out.Arena != nil {
					off := out.Arena.Alloc(2)
					ow := out.Arena.Words()
					ow[off] = words[rn+ridOffRID]
					ow[off+1] = rids[i]
				}
			}
		}
		out.Pairs += int64(matches)
		a.Instr += int64(matches+1) * instrEmitMatch
		if out.Materialize {
			a.SeqBytes += int64(matches) * 8 // output pair write
		}
		div.Item(matches + 1)
	}

	if order != nil {
		for _, i := range order {
			run(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}

	n := int64(hi - lo)
	a.Items = n
	a.SeqBytes += n * 8 // rid, node ref reads
	if out.Materialize && out.Arena != nil {
		allocDelta(&a, before, out.Arena.Stats())
	}
	div.Flush(&a)
	return a
}

func (t *Table) probeOneRef(key, srid int32, out *Out) device.Acct {
	var a device.Acct
	a.Items = 1
	a.Instr = hash.InstrPerHash + instrVisitHeader
	a.SeqBytes = 8
	words := t.arena.Words()
	b := t.bucketOf(key)
	a.Rand[device.RegionHashTable]++ // bucket header

	kn := t.Head[b]
	for kn != nilRef && words[kn+keyOffKey] != key {
		kn = words[kn+keyOffNext]
		a.Instr += instrListNode
		a.Rand[device.RegionHashTable]++
	}
	if kn == nilRef {
		return a
	}
	for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
		a.Rand[device.RegionHashTable]++
		a.Instr += instrEmitMatch
		if out.Materialize && out.Arena != nil {
			off := out.Arena.Alloc(2)
			ow := out.Arena.Words()
			ow[off] = words[rn+ridOffRID]
			ow[off+1] = srid
			a.SeqBytes += 8
		}
		out.Pairs++
	}
	return a
}
