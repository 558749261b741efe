package htab

import (
	"fmt"

	"apujoin/internal/hash"
)

// The readers below walk a built table the way no kernel does — key by
// key, or the whole structure — so only the tests call them.

// Validate walks the whole structure checking invariants: bucket counts
// equal the rid counts of the bucket's keys, key nodes hash to their
// bucket, and no reference escapes the node array. It is O(table).
func (t *Table) Validate() error {
	for b := 0; b < t.nBuckets; b++ {
		var rids int32
		for kn := t.Head[b]; kn != nilRef; kn = t.nodes[kn+nodeNext] {
			if kn < 0 || int(kn)+nodeWords > len(t.nodes) || kn%nodeWords != 0 {
				return fmt.Errorf("htab: bucket %d: key node ref %d out of the node array [0,%d)", b, kn, len(t.nodes))
			}
			key := t.nodes[kn+nodeKey]
			if t.bucketsPerPart > 0 {
				segMask := uint32(t.bucketsPerPart - 1)
				want := (hash.Murmur2(uint32(key), hash.Murmur2Seed) >> t.segShift) & segMask
				if uint32(b)&segMask != want {
					return fmt.Errorf("htab: segmented bucket %d: key %d hashes to slot %d within segment",
						b, key, want)
				}
			} else if int((hash.Murmur2(uint32(key), hash.Murmur2Seed)>>t.segShift)&t.mask) != b {
				return fmt.Errorf("htab: bucket %d: key %d hashes to %d", b, key,
					(hash.Murmur2(uint32(key), hash.Murmur2Seed)>>t.segShift)&t.mask)
			}
			if t.nodes[kn+nodeCount] < 1 {
				return fmt.Errorf("htab: bucket %d: key %d holds %d rids", b, key, t.nodes[kn+nodeCount])
			}
			rids += t.nodes[kn+nodeCount]
		}
		if rids != t.Count[b] {
			return fmt.Errorf("htab: bucket %d: header count %d but its keys hold %d rids", b, t.Count[b], rids)
		}
	}
	return nil
}

// Lookup returns the number of build tuples carrying key, the reference
// the tests read the built structure through.
func (t *Table) Lookup(key int32) int32 {
	return t.lookupIn(t.bucketOf(key), key)
}

// LookupSeg is Lookup within partition part of a segmented table.
func (t *Table) LookupSeg(key int32, part int) int32 {
	segMask := uint32(t.bucketsPerPart - 1)
	return t.lookupIn(uint32(part*t.bucketsPerPart)+(hash.Murmur2(uint32(key), hash.Murmur2Seed)>>t.segShift)&segMask, key)
}

func (t *Table) lookupIn(b uint32, key int32) int32 {
	if kn, _ := t.find(b, key); kn != nilRef {
		return t.nodes[kn+nodeCount]
	}
	return 0
}
