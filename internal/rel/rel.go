// Package rel defines the relations the joins operate on and the synthetic
// data generators used throughout the evaluation.
//
// Following the paper (Sec. 5.1) and Blanas et al. (SIGMOD 2011), a relation
// consists of two four-byte integer attributes, the record ID and the key
// value, stored column-wise. The default workload is 16 M tuples per
// relation with uniform keys; skewed datasets duplicate a single heavy key
// for s% of the tuples (low-skew s=10, high-skew s=25), and join selectivity
// is controlled by the fraction of probe keys that have a match in the
// build relation.
package rel

import (
	"fmt"
	"math/rand"
	"strings"

	"apujoin/internal/alloc"
)

// Relation is a column-oriented relation of (RID, Key) pairs.
// RIDs[i] and Keys[i] together form tuple i.
type Relation struct {
	RIDs []int32
	Keys []int32
}

// Len returns the number of tuples in the relation.
func (r Relation) Len() int { return len(r.Keys) }

// Bytes returns the in-memory size of the relation in bytes
// (two 4-byte columns), which is what the zero-copy buffer accounting
// and the PCI-e transfer model charge for.
func (r Relation) Bytes() int64 { return int64(r.Len()) * 8 }

// Validate checks structural invariants: equal column lengths and
// non-negative RIDs. It returns a descriptive error on violation.
func (r Relation) Validate() error {
	if len(r.RIDs) != len(r.Keys) {
		return fmt.Errorf("rel: column length mismatch: %d RIDs vs %d keys", len(r.RIDs), len(r.Keys))
	}
	if anyNegative(r.RIDs) {
		for i, rid := range r.RIDs {
			if rid < 0 {
				return fmt.Errorf("rel: negative RID %d at index %d", rid, i)
			}
		}
	}
	return nil
}

// anyNegative reports whether v holds a negative value. A value is negative
// iff its sign bit is set, and an OR keeps every sign bit, so v is
// OR-reduced eight words at a time with no branch per word.
func anyNegative(v []int32) bool {
	var acc int32
	i := 0
	for ; i+8 <= len(v); i += 8 {
		w := v[i : i+8 : i+8]
		acc |= (w[0] | w[1]) | (w[2] | w[3]) | (w[4] | w[5]) | (w[6] | w[7])
	}
	for _, x := range v[i:] {
		acc |= x
	}
	return acc < 0
}

// Recycled returns an n-tuple relation whose two columns are recycler slabs
// of arbitrary contents, for a producer that writes every word of both.
// Release hands them back.
func Recycled(n int) Relation {
	return Relation{RIDs: alloc.GetWords(n), Keys: alloc.GetWords(n)}
}

// Release hands a Recycled relation's columns back to the recycler. Nothing
// may read the relation afterwards; the zero relation is fine to pass.
func (r Relation) Release() {
	alloc.PutWords(r.RIDs)
	alloc.PutWords(r.Keys)
}

// Slice returns the sub-relation covering tuples [lo, hi).
// The returned relation shares backing storage with r.
func (r Relation) Slice(lo, hi int) Relation {
	return Relation{RIDs: r.RIDs[lo:hi], Keys: r.Keys[lo:hi]}
}

// Distribution identifies one of the paper's synthetic data distributions.
type Distribution int

const (
	// Uniform assigns distinct, uniformly shuffled key values.
	Uniform Distribution = iota
	// LowSkew duplicates one key value for 10% of the tuples (s=10).
	LowSkew
	// HighSkew duplicates one key value for 25% of the tuples (s=25).
	HighSkew
)

// String returns the name used in the paper's figures.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case LowSkew:
		return "low-skew"
	case HighSkew:
		return "high-skew"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution parses the CLI/API name of a distribution ("uniform",
// "low", "high"); the empty string selects Uniform. Shared by the command
// front-ends so the accepted vocabulary cannot drift.
func ParseDistribution(s string) (Distribution, error) {
	switch strings.ToLower(s) {
	case "", "uniform":
		return Uniform, nil
	case "low", "low-skew":
		return LowSkew, nil
	case "high", "high-skew":
		return HighSkew, nil
	default:
		return 0, fmt.Errorf("rel: unknown skew %q (uniform | low | high)", s)
	}
}

// SkewPercent returns the share of tuples carrying the duplicated heavy key,
// per the paper's definition ("s% of tuples with one duplicate key value").
func (d Distribution) SkewPercent() int {
	switch d {
	case LowSkew:
		return 10
	case HighSkew:
		return 25
	default:
		return 0
	}
}

// Gen describes a synthetic dataset to generate.
type Gen struct {
	// N is the number of tuples.
	N int
	// Dist selects the key distribution.
	Dist Distribution
	// Seed makes generation deterministic.
	Seed int64
	// KeyRange is the size of the key domain for unique keys.
	// Zero means "equal to N".
	KeyRange int
}

// Build generates a build relation R: key values are a permutation of
// [1, KeyRange], so keys are distinct (the primary-key side of the join,
// as in Blanas et al.). Dist does not alter the build side — skew lives in
// the foreign keys of the probe relation; a skewed build side would make
// the join output quadratic.
func (g Gen) Build() Relation {
	n := g.N
	keyRange := g.KeyRange
	if keyRange <= 0 {
		keyRange = n
	}
	rng := rand.New(rand.NewSource(g.Seed))

	keys := make([]int32, n)
	rids := make([]int32, n)
	// Permutation of 1..keyRange truncated to n values.
	perm := rng.Perm(keyRange)
	for i := 0; i < n; i++ {
		keys[i] = int32(perm[i%keyRange] + 1)
		rids[i] = int32(i)
	}
	return Relation{RIDs: rids, Keys: keys}
}

// Probe generates a probe relation S against build relation r with the
// given match selectivity in [0,1]: that fraction of probe tuples carry a
// key that exists in r; the rest carry keys outside r's domain.
func (g Gen) Probe(r Relation, selectivity float64) Relation {
	if selectivity < 0 || selectivity > 1 {
		panic(fmt.Sprintf("rel: selectivity %v out of [0,1]", selectivity))
	}
	n := g.N
	rng := rand.New(rand.NewSource(g.Seed + 1))

	keys := make([]int32, n)
	rids := make([]int32, n)
	nr := r.Len()
	// Non-matching keys live above every key Build can generate.
	nonMatchBase := int32(1 << 30)
	for i := 0; i < n; i++ {
		rids[i] = int32(i)
		if rng.Float64() < selectivity && nr > 0 {
			keys[i] = r.Keys[rng.Intn(nr)]
		} else {
			keys[i] = nonMatchBase + int32(rng.Intn(1<<20))
		}
	}

	// Skew: s% of the probe tuples carry one duplicate (heavy) foreign
	// key — low-skew s=10, high-skew s=25 — so those probes hammer one
	// bucket (latch contention) while enjoying its cache residency, the
	// tension the paper's Sec. 5.5 and locking microbenchmark discuss.
	if s := g.Dist.SkewPercent(); s > 0 && n > 0 && nr > 0 {
		heavy := r.Keys[0]
		dups := n * s / 100
		for i := 0; i < dups; i++ {
			keys[rng.Intn(n)] = heavy
		}
	}
	return Relation{RIDs: rids, Keys: keys}
}

// NaiveJoinCount computes the number of matching (r,s) pairs with a plain
// Go map, used as the correctness oracle in tests.
func NaiveJoinCount(r, s Relation) int64 {
	byKey := make(map[int32]int64, r.Len())
	for _, k := range r.Keys {
		byKey[k]++
	}
	var total int64
	for _, k := range s.Keys {
		total += byKey[k]
	}
	return total
}
