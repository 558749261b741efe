package htab

import (
	"apujoin/internal/device"
	"apujoin/internal/hash"
)

// InsertOne performs a fused single-tuple insert (b1..b4 in one call).
// It exists for the coarse-grained step definition PHJ-PL' (paper Sec. 3.3),
// where one work item executes a whole partition pair's join, and for
// tests.
func (t *Table) InsertOne(key, rid int32) device.Acct {
	a, created := t.insertOne(key, rid)
	if created > 0 {
		t.numKeys.Add(created)
	}
	a.Items = 1
	a.Instr += hash.InstrPerHash
	a.SeqBytes += 8
	return a
}

// ProbeOne performs a fused single-tuple probe (p1..p4 in one call),
// counting matches into out and, under Materialize with an arena, charging
// their output.
func (t *Table) ProbeOne(key int32, out *Out) device.Acct {
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
	var matches int64
	for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
		matches++
	}
	a.Rand[device.RegionHashTable] += matches
	a.Instr += matches * instrEmitMatch
	out.Pairs += matches
	if out.Materialize && out.Arena != nil {
		out.Arena.Count(matches, pairWords)
		a.SeqBytes += matches * 8
	}
	return a
}
