package htab

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
)

// Out collects the join result of P4 and ProbeOne: the number of matching
// (buildRID, probeRID) pairs. No pair is written. Materialize decides
// whether the output is charged as the paper's kernel writes it: 8 bytes
// and one two-word request to the software allocator per pair — the "join
// result output" dynamic allocation of the paper — counted in closed form
// on Arena, the run's serial output arena. A pool morsel has no arena of
// its own; ChargeFresh charges its pairs as a fresh one would serve them.
type Out struct {
	Arena       *alloc.Arena
	Materialize bool
	Pairs       int64
}

// pairWords is one output pair's allocator request.
const pairWords = 2

// ChargeFresh charges into a, under Materialize, the allocator activity of
// a fresh output arena under cfg that served o's pairs, and returns it: the
// output allocator of a pool morsel's P4, which builds no arena.
func (o *Out) ChargeFresh(a *device.Acct, cfg alloc.Config) alloc.Stats {
	if !o.Materialize {
		return alloc.Stats{}
	}
	st := alloc.FreshStats(cfg, o.Pairs, pairWords)
	allocDelta(a, alloc.Stats{}, st)
	return st
}

// Walk does the host work of p2, p3 and p4 for probe tuples [lo,hi) in one
// pass: it visits each tuple's bucket header, walks the key list for the
// tuple's key and reads the matching key's rid count. It records the
// key-list nodes visited into vis[i] (the matching node's position plus one,
// or the list length plus one when the key is absent), the matches into
// match[i] and, when work is non-nil, the bucket's tuple count into work[i]
// — the workload hint the grouping optimization sorts by (paper Sec. 3.3:
// "the amount of workload is represented by the number of keys in the key
// list"). A sealed table (Seal) is read through its flat layout, any other
// through its key lists; both write the same columns. The steps' device
// time comes from the columns: P2Charge, P3Charge and P4Charge.
func (t *Table) Walk(keys, bucket, work, vis, match []int32, lo, hi int) {
	if work != nil {
		for i := lo; i < hi; i++ {
			work[i] = t.Count[bucket[i]]
		}
	}
	if t.off != nil {
		t.walkSealed(keys, bucket, vis, match, lo, hi)
		return
	}
	nodes := t.nodes
	for i := lo; i < hi; i++ {
		key := keys[i]
		var visited int32 = 1
		kn := t.Head[bucket[i]]
		for kn != nilRef && nodes[kn+nodeKey] != key {
			kn = nodes[kn+nodeNext]
			visited++
		}
		var matches int32
		if kn != nilRef {
			matches = nodes[kn+nodeCount]
		}
		vis[i], match[i] = visited, matches
	}
}

// walkSealed is Walk over the sealed layout: bucket b's keys are the
// (key, rid count) pairs of ent[off[b]:off[b+1]], in key-list order. A key
// lies in exactly one bucket, so a pair past b's run — a later bucket's —
// never holds a key of b: the first two pairs from off[b] are read and
// compared whatever b holds, and the common bucket, whose key is one of
// them or which holds at most two, is answered by two conditional moves,
// with no data-dependent branch. Only a longer bucket walks on, from its
// third pair; only a bucket within two pairs of ent's end walks from its
// first.
func (t *Table) walkSealed(keys, bucket, vis, match []int32, lo, hi int) {
	off, ent := t.off, t.ent
	bucket, vis, match = bucket[lo:hi], vis[lo:hi], match[lo:hi]
	for i, key := range keys[lo:hi] {
		e, end := off[bucket[i]], off[bucket[i]+1]
		visited, matches := int32(1), int32(0)
		if int(e)+4 <= len(ent) {
			// The loads stay outside the ifs: an if that loads compiles
			// to a branch, one that only moves to a CMOV.
			p := (*[4]int32)(ent[e:])
			k0, c0, k1, c1 := p[0], p[1], p[2], p[3]
			visited = (end-e)>>1 + 1
			if k1 == key {
				visited, matches = 2, c1
			}
			if k0 == key {
				visited, matches = 1, c0
			}
			if visited <= 3 {
				vis[i], match[i] = visited, matches
				continue
			}
			e, visited = e+4, 3
		}
		for ; e < end; e += 2 {
			if ent[e] == key {
				matches = ent[e+1]
				break
			}
			visited++
		}
		vis[i], match[i] = visited, matches
	}
}

// P2Charge is the accounting record of p2 over probe tuples [lo,hi): one
// bucket-header visit per tuple, which snapshots the key-list head (and,
// under grouping, the workload hint). Walk does its host work.
func (t *Table) P2Charge(lo, hi int) device.Acct {
	var a device.Acct
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8
	a.Rand[device.RegionHashTable] = n
	return a
}

// P3Charge is the accounting record of p3 over probe tuples [lo,hi) from
// Walk's vis column: the key-list walk, the divergent pointer-chasing step
// (like b3). order, when non-nil, is the grouped permutation of exactly
// [lo,hi) the step runs in on a SIMD device; it decides which items share a
// wavefront.
func (t *Table) P3Charge(d *device.Device, vis []int32, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	visited := divCharge(&a, d.WavefrontSize, vis, 0, lo, hi, order)
	n := int64(hi - lo)
	a.Items = n
	a.Instr = visited * instrListNode
	a.SeqBytes = n * 12
	a.Rand[device.RegionHashTable] = visited
	return a
}

// P4Charge is the accounting record of p4 over probe tuples [lo,hi) from
// Walk's match column: every matching build tuple is visited and counted
// into out as one output tuple, the output charged as Out describes. The
// per-item workload is the number of matches plus one, so skew and
// selectivity show up as wavefront divergence here. order is as for
// P3Charge.
func (t *Table) P4Charge(d *device.Device, match []int32, out *Out, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	pairs := divCharge(&a, d.WavefrontSize, match, 1, lo, hi, order) - int64(hi-lo)
	n := int64(hi - lo)
	a.Items = n
	a.Instr = (pairs + n) * instrEmitMatch
	a.SeqBytes = n * 8 // rid, node ref reads
	a.Rand[device.RegionHashTable] = pairs
	out.Pairs += pairs
	if out.Materialize {
		a.SeqBytes += pairs * 8 // output pair writes
		if out.Arena != nil {
			before := out.Arena.Stats()
			out.Arena.Count(pairs, pairWords)
			allocDelta(&a, before, out.Arena.Stats())
		}
	}
	return a
}

// divCharge adds to a the divergence sums of items [lo,hi) whose work is
// col[i]+add, run in order (or in index order when order is nil) in
// wavefronts of wf lanes: what device.DivTracker sums item by item, the
// partial trailing wavefront charged at its live lanes, in one pass over
// the column (1.5–4.7 times faster than an Item call per item). Every
// item's work must be at least 1, as Walk's columns plus add are. It
// returns the total work.
func divCharge(a *device.Acct, wf int, col []int32, add int32, lo, hi int, order []int32) int64 {
	var all, maxed int64
	if wf <= 1 {
		// One lane a wavefront: each item is its own maximum, in any order.
		for _, w := range col[lo:hi] {
			all += int64(w + add)
		}
		maxed = all
	} else {
		for at := 0; at < hi-lo; at += wf {
			lanes := min(wf, hi-lo-at)
			var top int32
			for j := at; j < at+lanes; j++ {
				i := lo + j
				if order != nil {
					i = int(order[j])
				}
				w := col[i] + add
				all += int64(w)
				top = max(top, w)
			}
			maxed += int64(top) * int64(lanes)
		}
	}
	a.DivMaxWork += maxed
	a.DivWork += all
	return all
}
