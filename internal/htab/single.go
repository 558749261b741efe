package htab

import (
	"apujoin/internal/device"
	"apujoin/internal/hash"
)

// InsertOne performs a fused single-tuple insert (b1..b4 in one call).
// It exists for the coarse-grained step definition PHJ-PL' (paper Sec. 3.3),
// where one work item executes a whole partition pair's join, and for
// tests. Its key nodes are created in insertion order, so the table takes
// as many distinct keys as New sized it for tuples. The paper's node
// requests are charged on the table's arena in request order.
func (t *Table) InsertOne(key int32) device.Acct {
	var a device.Acct
	b := t.bucketOf(key)
	t.Count[b]++
	kn, hops := t.find(b, key)
	if kn == nilRef {
		kn = int32(nodeWords * t.numKeys.Load())
		t.nodes[kn+nodeKey], t.nodes[kn+nodeNext], t.nodes[kn+nodeCount] = key, t.Head[b], 0
		t.Head[b] = kn
		t.numKeys.Add(1)
		t.arena.Count(1, keyNodeWords)
		a.Instr += instrCreateNode
		a.AtomicOps++
	}
	t.nodes[kn+nodeCount]++
	t.arena.Count(1, ridNodeWords)
	a.Items = 1
	a.Instr += hash.InstrPerHash + instrVisitHeader + hops*instrListNode + instrInsertRID
	a.SeqBytes = 8
	a.Rand[device.RegionHashTable] = 3 + hops // header, list nodes, rid node and its link
	a.AtomicOps += 2
	a.AtomicTargets = int64(t.nBuckets)
	return a
}

// ProbeOne performs a fused single-tuple probe (p1..p4 in one call),
// counting matches into out and, under Materialize with an arena, charging
// their output.
func (t *Table) ProbeOne(key int32, out *Out) device.Acct {
	var a device.Acct
	kn, hops := t.find(t.bucketOf(key), key)
	a.Items = 1
	a.Instr = hash.InstrPerHash + instrVisitHeader + hops*instrListNode
	a.SeqBytes = 8
	a.Rand[device.RegionHashTable] = 1 + hops // bucket header, list nodes
	if kn == nilRef {
		return a
	}
	matches := int64(t.nodes[kn+nodeCount])
	a.Rand[device.RegionHashTable] += matches
	a.Instr += matches * instrEmitMatch
	out.Pairs += matches
	if out.Materialize && out.Arena != nil {
		out.Arena.Count(matches, pairWords)
		a.SeqBytes += matches * 8
	}
	return a
}
