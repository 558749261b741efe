package core

import (
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// StreamMaterialize is the streamed pipeline hand-off between two Exec
// instances: it produces R ⋈ S directly into the buffer that becomes the
// next step's build relation, at morsel granularity on the shared pool,
// instead of the single-stream rel.JoinMaterialize pass through the
// catalog. counts is the build side's key → multiplicity table
// (rel.KeyCounts of the step's build input — the same per-key state the
// step's hash table held); s is the step's probe side, whose order defines
// the output order. counts is only read: one table serves any number of
// calls, and releasing it stays with whoever built it.
//
// The construction reuses the pool's ordered-reduction machinery so the
// output is bit-identical to rel.JoinMaterialize for any worker count:
//
//  1. Count pass: the probe side is split into the fixed sched.MorselItems
//     grid and each morsel sums its matches (CollectRange — a pure
//     function of the morsel, merged in grid order).
//  2. An exclusive prefix sum over the per-morsel counts, in grid order,
//     places every morsel's output slice.
//  3. Fill pass: each morsel writes its matches — probe order, a probe
//     tuple's matches in build-tuple order, RIDs dense from the morsel's
//     offset — into its disjoint slice of the output concurrently.
//
// Scheduling decides only which goroutine fills which morsel when; the
// grid, the offsets and every written value are pure functions of the
// inputs. A zero match count returns the zero relation (nil columns),
// exactly as rel.JoinMaterialize does.
//
// The caller must ensure the match count fits a relation (≤ MaxInt32
// tuples); pipeline execution checks the step's exact Matches before
// producing. A nil pool runs the same grid inline.
//
// Both output columns are recycler slabs, every word of which the fill
// pass writes. The chain that called for the intermediate owns it and hands
// it back with Release once the consumer step has run and derived
// its own per-key state; a caller that simply drops the result leaves
// ordinary garbage.
func StreamMaterialize(pool *sched.Pool, counts rel.Counts, s rel.Relation) rel.Relation {
	n := s.Len()
	if n == 0 || counts.Len() == 0 {
		return rel.Relation{}
	}
	perMorsel := sched.CollectRange(pool, 0, n, func(mlo, mhi int) int64 {
		return counts.Matches(s.Keys[mlo:mhi])
	})
	offsets := make([]int64, len(perMorsel))
	var total int64
	for i, c := range perMorsel {
		offsets[i] = total
		total += c
	}
	if total == 0 {
		return rel.Relation{}
	}
	out := rel.Recycled(int(total))
	pool.ForEach(len(perMorsel), func(i int) {
		mlo := i * sched.MorselItems
		mhi := mlo + sched.MorselItems
		if mhi > n {
			mhi = n
		}
		at := offsets[i]
		for _, k := range s.Keys[mlo:mhi] {
			for c := counts.Of(k); c > 0; c-- {
				out.RIDs[at] = int32(at)
				out.Keys[at] = k
				at++
			}
		}
	})
	return out
}
