package htab

import (
	"fmt"

	"apujoin/internal/hash"
)

// The readers below walk a built table the way no kernel does — key by
// key, or the whole structure — so only the tests call them.

// Validate walks the whole structure checking invariants: bucket counts
// equal the number of rids reachable in the bucket, key nodes hash to their
// bucket, and no reference escapes the arena. It is O(table).
func (t *Table) Validate() error {
	words := t.arena.Words()
	used := int32(t.arena.Used())
	for b := 0; b < t.nBuckets; b++ {
		var rids int32
		for kn := t.Head[b]; kn != nilRef; kn = words[kn+keyOffNext] {
			if kn < 0 || kn+keyNodeWords > used {
				return fmt.Errorf("htab: bucket %d: key node ref %d out of arena [0,%d)", b, kn, used)
			}
			key := words[kn+keyOffKey]
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
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				if rn < 0 || rn+ridNodeWords > used {
					return fmt.Errorf("htab: bucket %d: rid node ref %d out of arena [0,%d)", b, rn, used)
				}
				rids++
			}
		}
		if rids != t.Count[b] {
			return fmt.Errorf("htab: bucket %d: header count %d but %d rids reachable", b, t.Count[b], rids)
		}
	}
	return nil
}

// Lookup returns the rids associated with key, the flat-table reference the tests read the built structure through.
func (t *Table) Lookup(key int32) []int32 {
	words := t.arena.Words()
	b := t.bucketOf(key)
	for kn := t.Head[b]; kn != nilRef; kn = words[kn+keyOffNext] {
		if words[kn+keyOffKey] == key {
			var out []int32
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				out = append(out, words[rn+ridOffRID])
			}
			return out
		}
	}
	return nil
}

// LookupSeg returns the rids for key within partition part, the segmented
// analogue of Lookup.
func (t *Table) LookupSeg(key int32, part int) []int32 {
	words := t.arena.Words()
	segMask := uint32(t.bucketsPerPart - 1)
	b := part*t.bucketsPerPart + int((hash.Murmur2(uint32(key), hash.Murmur2Seed)>>t.segShift)&segMask)
	for kn := t.Head[b]; kn != nilRef; kn = words[kn+keyOffNext] {
		if words[kn+keyOffKey] == key {
			var out []int32
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				out = append(out, words[rn+ridOffRID])
			}
			return out
		}
	}
	return nil
}
