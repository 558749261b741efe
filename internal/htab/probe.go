package htab

import (
	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
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

// P1 computes the hash bucket number for probe tuples [lo,hi).
func (t *Table) P1(d *device.Device, keys []int32, bucket []int32, lo, hi int) device.Acct {
	var a device.Acct
	shift := t.segShift
	for i := lo; i < hi; i++ {
		bucket[i] = int32((hash.Murmur2(uint32(keys[i]), hash.Murmur2Seed) >> shift) & t.mask)
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * hash.InstrPerHash
	a.SeqBytes = n * 8
	return a
}

// P2 visits the bucket header for probe tuples [lo,hi), snapshotting the
// key-list head into head[i] and the bucket's tuple count into work[i]
// (if non-nil). The counts are the workload hints the grouping
// optimization sorts by (paper Sec. 3.3: "the amount of workload is
// represented by the number of keys in the key list").
func (t *Table) P2(d *device.Device, bucket []int32, head, work []int32, lo, hi int) device.Acct {
	var a device.Acct
	if work != nil {
		for i := lo; i < hi; i++ {
			b := bucket[i]
			head[i] = t.Head[b]
			work[i] = t.Count[b]
		}
	} else {
		for i := lo; i < hi; i++ {
			head[i] = t.Head[bucket[i]]
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8
	a.Rand[device.RegionHashTable] = n
	return a
}

// P3 walks the key list from head[i] looking for each probe key, storing
// the matching key node (or -1) into node[i]. Like B3 this is the
// divergent pointer-chasing step; order enables grouped execution.
func (t *Table) P3(d *device.Device, keys, head []int32, node []int32, lo, hi int, order []int32) device.Acct {
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

// P4 visits the matching build tuples for probe tuples [lo,hi): it walks
// the rid list of node[i] and counts one output tuple per match into out,
// charging the output as Out describes. The per-item workload is the number
// of matches, so skew and selectivity show up as wavefront divergence here.
func (t *Table) P4(d *device.Device, node []int32, out *Out, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()
	var pairs int64

	run := func(i int) {
		var matches int32
		if kn := node[i]; kn != nilRef {
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				matches++
			}
		}
		pairs += int64(matches)
		div.Item(matches + 1)
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
	div.Flush(&a)
	return a
}
