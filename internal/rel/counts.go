package rel

import (
	"math/bits"

	"apujoin/internal/alloc"
)

// Counts is a key → multiplicity table: the per-key match counts a hash
// table built over a relation would hold. It is the compact producer state
// a pipeline hands from one join to the construction of the next
// intermediate — together with the probe side's key column it determines
// the materialized output completely, so JoinMaterialize's single-stream
// pass and the engine's morsel-parallel producer (core.StreamMaterialize)
// agree bit for bit — and it is built once per build side: the spiller's
// sizing, the skew escape hatch and the planner's selectivity bucket all
// read the same table.
//
// The table is flat: a power-of-two number of (key, count) slots in one
// recycled word slab, open addressing with linear probing at a load of at
// most one half. A count of zero marks an empty slot, so every int32 is a
// valid key. Lookups never write, so any number of goroutines may read one
// table. The zero Counts is the empty table.
type Counts struct {
	slots []int32 // slot i is slots[2i] (key), slots[2i+1] (count)
	n     int     // distinct keys
	max   int32   // largest count
}

// KeyCounts returns the key → multiplicity table of the relation.
func KeyCounts(r Relation) Counts { return CountKeys(r.Keys) }

// CountKeys returns the key → multiplicity table of a key column. Release
// it when the last reader is done.
func CountKeys(keys []int32) Counts {
	c := makeCounts(len(keys))
	for _, k := range keys {
		c.add(k)
	}
	return c
}

// Restrict returns the multiplicities, in keys, of the keys c holds: every
// other key of the column is skipped. The result has at most c.Len()
// distinct keys however long the column is, which is what makes "which of
// these few keys occur in that large relation" a scan against a small
// table.
func (c Counts) Restrict(keys []int32) Counts {
	out := makeCounts(c.n)
	if c.n == 0 {
		return out
	}
	for _, k := range keys {
		if c.Of(k) > 0 {
			out.add(k)
		}
	}
	return out
}

// Fit moves the table into one sized by its distinct keys. CountKeys sizes
// a table by the column it counts, so a column with repeated keys leaves
// most slots empty; Fit copies the held keys into the smallest table that
// keeps the load at most one half — 16–32 B per distinct key — and hands
// the old slab back, or leaves a table already that size as it is. It is
// for a table kept long after it was counted. Copies of c made before the
// call must not be read after it.
func (c *Counts) Fit() {
	if c.n == 0 || 2*slotsFor(c.n) == len(c.slots) {
		return
	}
	out := makeCounts(c.n)
	mask := len(out.slots) - 1
	for i := 0; i < len(c.slots); i += 2 {
		if c.slots[i+1] == 0 {
			continue
		}
		// The held keys are distinct, so each takes the first empty slot.
		j := int(mix(c.slots[i])) << 1 & mask
		for out.slots[j|1] != 0 {
			j = (j + 2) & mask
		}
		out.slots[j], out.slots[j|1] = c.slots[i], c.slots[i+1]
	}
	out.n, out.max = c.n, c.max
	c.Release()
	*c = out
}

// slotsFor is the number of slots that holds the given number of distinct
// keys at a load of at most one half: a power of two.
func slotsFor(distinct int) int { return 1 << bits.Len(uint(2*distinct-1)) }

// makeCounts returns an empty table with room for the given number of
// distinct keys at a load of at most one half.
func makeCounts(distinct int) Counts {
	if distinct == 0 {
		return Counts{}
	}
	return Counts{slots: alloc.GetZeroed(2 * slotsFor(distinct))}
}

// mix spreads a key over the table. It must be decorrelated from every
// hash that decided which keys are here: a partition-local table holds
// only keys that agree on three bits of shard.PartitionAt's Murmur2 at
// each level above it, and a table indexed by any seeding of that function
// would see them crowd into a fraction of its slots (shard.levelSeed's
// comment describes the same trap one layer up); the join kernels'
// hash.Murmur2Seed is out for the same reason. This is a different
// function altogether — two multiply/xor-shift rounds with the low-bias
// constants of Wellons' hash-prospector — not a reseeding.
func mix(k int32) uint32 {
	x := uint32(k)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// add counts one occurrence of k. The table must have a free slot, which
// makeCounts' sizing guarantees to both constructors.
func (c *Counts) add(k int32) {
	slots := c.slots
	mask := len(slots) - 1
	for i := int(mix(k)) << 1 & mask; ; i = (i + 2) & mask {
		switch n := slots[i|1]; {
		case n == 0:
			slots[i], slots[i|1] = k, 1
			c.n++
			c.max = max(c.max, 1)
			return
		case slots[i] == k:
			slots[i|1] = n + 1
			c.max = max(c.max, n+1)
			return
		}
	}
}

// Of returns k's multiplicity, zero for a key the table does not hold.
func (c Counts) Of(k int32) int32 {
	slots := c.slots
	if len(slots) == 0 {
		return 0
	}
	mask := len(slots) - 1
	for i := int(mix(k)) << 1 & mask; ; i = (i + 2) & mask {
		if n := slots[i|1]; n == 0 || slots[i] == k {
			return n
		}
	}
}

// Matches returns the summed multiplicity of a probe key column: the number
// of (build tuple, probe tuple) pairs an equi-join of the counted relation
// with that column produces — exactly, before any join runs.
func (c Counts) Matches(keys []int32) int64 {
	slots := c.slots
	if len(slots) == 0 {
		return 0
	}
	mask := len(slots) - 1
	var m int64
	for _, k := range keys {
		i := int(mix(k)) << 1 & mask
		n := slots[i|1]
		for n != 0 && slots[i] != k {
			i = (i + 2) & mask
			n = slots[i|1]
		}
		m += int64(n)
	}
	return m
}

// OfEach writes each key's multiplicity to dst — dst[i] = Of(keys[i]) — and
// returns their sum, Matches(keys). dst must be at least as long as keys.
func (c Counts) OfEach(dst, keys []int32) int64 {
	dst = dst[:len(keys)]
	slots := c.slots
	if len(slots) == 0 {
		clear(dst)
		return 0
	}
	mask := len(slots) - 1
	var m int64
	for j, k := range keys {
		i := int(mix(k)) << 1 & mask
		n := slots[i|1]
		for n != 0 && slots[i] != k {
			i = (i + 2) & mask
			n = slots[i|1]
		}
		dst[j] = n
		m += int64(n)
	}
	return m
}

// Len returns the number of distinct keys.
func (c Counts) Len() int { return c.n }

// Max returns the largest multiplicity, zero for the empty table.
func (c Counts) Max() int32 { return c.max }

// Release hands the table's slab back to the recycler and leaves the empty
// table behind. Copies of c made before the call must not be read after
// it.
func (c *Counts) Release() {
	alloc.PutWords(c.slots)
	*c = Counts{}
}
