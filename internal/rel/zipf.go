package rel

import (
	"math"
	"math/rand"
)

// ZipfProbe generates a probe relation whose foreign keys follow a Zipf
// distribution over the build relation's keys — the continuous-skew
// companion of the paper's s%-duplicate datasets, matching the Zipf
// workloads of Blanas et al. theta is the Zipf exponent (typical database
// skew studies use 0 < theta ≤ 1; theta→0 degenerates to uniform).
//
// All probe tuples match (selectivity 1); combine with Probe for
// selectivity control when Zipf skew is not needed.
func (g Gen) ZipfProbe(r Relation, theta float64) Relation {
	n := g.N
	rng := rand.New(rand.NewSource(g.Seed + 2))
	keys := make([]int32, n)

	nr := r.Len()
	if nr == 0 {
		return Relation{Keys: keys}
	}
	z := newZipf(rng, theta, nr)
	for i := 0; i < n; i++ {
		keys[i] = r.Keys[z.next()]
	}
	return Relation{Keys: keys}
}

// zipf samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^theta using the
// classic cumulative-inversion method with a precomputed CDF. The stdlib's
// rand.Zipf requires s > 1, which excludes the database-standard
// 0 < theta ≤ 1 range, hence this implementation.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, theta float64, n int) *zipf {
	if theta < 0 {
		theta = 0
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{rng: rng, cdf: cdf}
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
