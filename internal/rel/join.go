package rel

// JoinMaterialize materializes R ⋈ S on the key columns as a relation: one
// output tuple per matching (r, s) pair, carrying the join key. It is the
// intermediate-producing step of multi-way join pipelines — the output of
// one pairwise join becomes the build side of the next.
//
// The output order is a pure function of the inputs and never of any
// execution choice: tuples appear in probe order (every match of S's tuple
// 0, then of tuple 1, ...), with a tuple's matches ordered by the build
// side's tuple order. This is what makes pipelines bit-identical across
// worker counts: the engine's parallel run contributes only the simulated
// numbers, while the intermediate data always comes from this single-stream
// construction.
//
// The output length equals the pairwise match count (Result.Matches of the
// corresponding join), which pipeline execution uses as a cross-check.
func JoinMaterialize(r, s Relation) Relation {
	counts := KeyCounts(r)
	defer counts.Release()
	m := counts.Matches(s.Keys)
	if m == 0 {
		// The zero relation, with nil columns — the same representation a
		// tuple-at-a-time construction (and the test oracle) produces.
		return Relation{}
	}
	out := Relation{Keys: make([]int32, 0, m)}
	for _, k := range s.Keys {
		for c := counts.Of(k); c > 0; c-- {
			out.Keys = append(out.Keys, k)
		}
	}
	return out
}
