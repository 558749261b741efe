// Package rel defines the relations the joins operate on and the synthetic
// data generators used throughout the evaluation.
//
// The paper (Sec. 5.1, after Blanas et al., SIGMOD 2011) stores a relation
// as two four-byte integer columns, the record ID and the key value. No join
// result reads a record ID — the output is counted — so a relation here is
// its key column alone, and the cost model still charges the paper's 8-byte
// tuple (Relation.Bytes). The default workload is 16 M tuples per
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

// Relation is a relation of int32 keys: Keys[i] is tuple i's key.
type Relation struct {
	// RIDs is ignored: no code path reads, moves or checks it, and every
	// producer leaves it nil. It stays only for callers that still set it.
	RIDs []int32
	Keys []int32
}

// Len returns the number of tuples in the relation.
func (r Relation) Len() int { return len(r.Keys) }

// Bytes returns the paper's in-memory size of the relation in bytes (a
// 4-byte record ID and a 4-byte key per tuple), which is what the zero-copy
// buffer accounting and the PCI-e transfer model charge for.
func (r Relation) Bytes() int64 { return int64(r.Len()) * 8 }

// Recycled returns an n-tuple relation whose key column is a recycler slab
// of arbitrary contents, for a producer that writes every word of it.
// Release hands it back.
func Recycled(n int) Relation {
	return Relation{Keys: alloc.GetWords(n)}
}

// Release hands a Recycled relation's key column back to the recycler.
// Nothing may read the relation afterwards; the zero relation is fine to
// pass.
func (r Relation) Release() {
	alloc.PutWords(r.Keys)
}

// Slice returns the sub-relation covering tuples [lo, hi).
// The returned relation shares backing storage with r.
func (r Relation) Slice(lo, hi int) Relation {
	return Relation{Keys: r.Keys[lo:hi]}
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
	// Permutation of 1..keyRange truncated to n values.
	perm := rng.Perm(keyRange)
	for i := 0; i < n; i++ {
		keys[i] = int32(perm[i%keyRange] + 1)
	}
	return Relation{Keys: keys}
}

// NonMatchBase is where Probe's non-matching keys start: they are drawn
// from [NonMatchBase, NonMatchBase+2^20), above every key Build can
// generate, so that they match no build tuple. A build side that holds such
// a key would change a generated probe's selectivity.
const NonMatchBase int32 = 1 << 30

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
	nr := r.Len()
	for i := 0; i < n; i++ {
		if rng.Float64() < selectivity && nr > 0 {
			keys[i] = r.Keys[rng.Intn(nr)]
		} else {
			keys[i] = NonMatchBase + int32(rng.Intn(1<<20))
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
	return Relation{Keys: keys}
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
