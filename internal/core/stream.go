package core

import (
	"apujoin/internal/alloc"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// The streamed pipeline hand-off between two Exec instances produces R ⋈ S
// directly into the buffer that becomes the next step's build relation, at
// morsel granularity on the shared pool, instead of the single-stream
// rel.JoinMaterialize pass through the catalog. It looks every probe key up
// in the build side's key → multiplicity table once; everything after that
// reads the lookup's result, never the table:
//
//  1. Multiplicity pass (Multiplicities): the probe side is split into the
//     fixed sched.MorselItems grid and each morsel writes its tuples'
//     multiplicities into one recycled slab and sums them (CollectRange —
//     a pure function of the morsel, merged in grid order). The total is
//     the exact intermediate size, which a chain's budget pre-check reads
//     before the step runs.
//  2. An exclusive prefix sum over the slab's per-morsel sums, in grid
//     order, places every morsel's output slice (StreamFill).
//  3. Fill pass (StreamFill): each morsel writes its matches — probe order,
//     mult[i] copies of probe tuple i's key — into its disjoint slice of the
//     output concurrently.
//
// Scheduling decides only which goroutine handles which morsel when; the
// grid, the offsets and every written value are pure functions of the
// inputs, so the output is bit-identical to rel.JoinMaterialize for any
// worker count. StreamMaterialize runs the three in one call.

// Mults is a probe key column's per-tuple multiplicities against one build
// side: Of[i] is the number of build tuples whose key is probe tuple i's,
// and Total is their sum, the exact size of the join's output. Of is a
// recycler slab with one owner, whoever called Multiplicities, who hands it
// back with Release; everyone else only reads it, whole or a chunk Of[lo:hi]
// at a time. Like the count table it was read from, it is producer state,
// not an intermediate: no budget reserves it.
type Mults struct {
	Of    []int32
	Total int64
}

// Multiplicities looks every key up in counts once, on the fixed
// sched.MorselItems grid over the pool, and returns the per-tuple
// multiplicities. counts is only read. A nil pool, or keys that fit one
// morsel, take one inline call instead, which writes the same words without
// the grid's closures.
func Multiplicities(pool *sched.Pool, counts rel.Counts, keys []int32) Mults {
	if len(keys) == 0 {
		return Mults{}
	}
	m := Mults{Of: alloc.GetWords(len(keys))}
	if pool == nil || len(keys) <= sched.MorselItems {
		m.Total = counts.OfEach(m.Of, keys)
		return m
	}
	of := m.Of
	for _, c := range sched.CollectRange(pool, 0, len(keys), func(lo, hi int) int64 {
		return counts.OfEach(of[lo:hi], keys[lo:hi])
	}) {
		m.Total += c
	}
	return m
}

// Release hands the slab back to the recycler and leaves the zero Mults.
// Nothing may read Of, or a slice of it, afterwards.
func (m *Mults) Release() {
	alloc.PutWords(m.Of)
	*m = Mults{}
}

// StreamFill produces the join of a build side with s from s's
// multiplicities against it: mult[i] belongs to s's tuple i, as
// Multiplicities computed them — a sub-slice serves the matching sub-slice
// of the probe side, whose grid starts at its own first tuple. Neither the
// prefix sum nor the fill consults a table. A zero total returns the zero
// relation (a nil key column), exactly as rel.JoinMaterialize does.
//
// The caller must ensure the total fits a relation (≤ MaxInt32 tuples);
// pipeline execution checks the step's exact total before producing.
//
// The output's key column is a recycler slab, every word of which the fill
// pass writes. The chain that called for the intermediate owns it and hands
// it back with Release once the consumer step has run and derived its own
// per-key state; a caller that simply drops the result leaves ordinary
// garbage.
func StreamFill(pool *sched.Pool, s rel.Relation, mult []int32) rel.Relation {
	// A plain sequential sum: it reads four bytes per tuple and no table, so
	// dispatching it would cost more than it saves.
	n := len(mult)
	offsets := make([]int64, (n+sched.MorselItems-1)/sched.MorselItems)
	var total int64
	for i := range offsets {
		offsets[i] = total
		for _, c := range mult[i*sched.MorselItems : min((i+1)*sched.MorselItems, n)] {
			total += int64(c)
		}
	}
	if total == 0 {
		return rel.Relation{}
	}
	out := rel.Recycled(int(total))
	pool.ForEach(len(offsets), func(i int) {
		mlo := i * sched.MorselItems
		mhi := min(mlo+sched.MorselItems, n)
		keys := s.Keys[mlo:mhi]
		at := offsets[i]
		for j, c := range mult[mlo:mhi] {
			for k := keys[j]; c > 0; c-- {
				out.Keys[at] = k
				at++
			}
		}
	})
	return out
}

// StreamMaterialize produces R ⋈ S from counts, R's key → multiplicity
// table (rel.KeyCounts of the step's build input — the same per-key state
// the step's hash table held), and s, the probe side, whose order defines
// the output order: Multiplicities, then StreamFill from them, the slab
// handed back before it returns. counts is only read: one table serves any
// number of calls, and releasing it stays with whoever built it. A nil pool
// runs the same grid inline.
func StreamMaterialize(pool *sched.Pool, counts rel.Counts, s rel.Relation) rel.Relation {
	mult := Multiplicities(pool, counts, s.Keys)
	defer mult.Release()
	return StreamFill(pool, s, mult.Of)
}
