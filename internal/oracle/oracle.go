// Package oracle is the brute-force reference the randomized tests compare
// the engine against. Every function here is written for obviousness, not
// speed — nested loops and plain maps, sharing no code with the join
// kernels, the planner or the materialization path it checks — so a bug in
// the engine cannot cancel out against the same bug in its oracle. The
// fuzz harness (FuzzJoinAgainstOracle in the root package) generates small
// relations across the skew/selectivity space and asserts every algorithm ×
// scheme combination, and every multi-way pipeline, agrees with these
// functions exactly.
package oracle

import "apujoin/internal/rel"

// JoinCount returns |R ⋈ S| on the key columns by exhaustive comparison.
func JoinCount(r, s rel.Relation) int64 {
	var total int64
	for _, sk := range s.Keys {
		for _, rk := range r.Keys {
			if rk == sk {
				total++
			}
		}
	}
	return total
}

// Join materializes R ⋈ S by exhaustive comparison, in the canonical
// intermediate order: probe order, a probe tuple's matches in build order.
// It is the reference for rel.JoinMaterialize.
func Join(r, s rel.Relation) rel.Relation {
	var out rel.Relation
	for _, sk := range s.Keys {
		for _, rk := range r.Keys {
			if rk == sk {
				out.Keys = append(out.Keys, sk)
			}
		}
	}
	return out
}

// PipelineCount returns the cardinality of the multi-way equi-join
// R1 ⋈ R2 ⋈ ... ⋈ Rn on the shared key attribute: Σ_k Π_i count_i(k).
// The count is order-independent — the same for every join order a
// pipeline might choose — which is exactly what makes it an oracle for
// the cost-based orderer: reordering may change every simulated time but
// never this number.
func PipelineCount(rels []rel.Relation) int64 {
	if len(rels) == 0 {
		return 0
	}
	prod := make(map[int32]int64, rels[0].Len())
	for _, k := range rels[0].Keys {
		prod[k]++
	}
	for _, r := range rels[1:] {
		counts := make(map[int32]int64, r.Len())
		for _, k := range r.Keys {
			counts[k]++
		}
		for k, p := range prod {
			if c := counts[k]; c > 0 {
				prod[k] = p * c
			} else {
				delete(prod, k)
			}
		}
	}
	var total int64
	for _, p := range prod {
		total += p
	}
	return total
}
