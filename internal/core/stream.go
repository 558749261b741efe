package core

import (
	"slices"
	"sync"

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
//     multiplicities into one recycled slab and records their sum (a pure
//     function of the morsel, summed in grid order). The total is
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
// dispatching.
func Multiplicities(pool *sched.Pool, counts rel.Counts, keys []int32) Mults {
	if len(keys) == 0 {
		return Mults{}
	}
	m := Mults{Of: alloc.GetWords(len(keys))}
	if pool == nil || len(keys) <= sched.MorselItems {
		m.Total = counts.OfEach(m.Of, keys)
		return m
	}
	h := takeHandoff(len(keys))
	defer h.put()
	h.counts, h.keys, h.of = counts, keys, m.Of
	pool.ForEach(len(h.sums), h.count)
	for _, c := range h.sums {
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
	h := takeHandoff(n)
	defer h.put()
	var total int64
	for i := range h.sums {
		h.sums[i] = total
		for _, c := range mult[i*sched.MorselItems : min((i+1)*sched.MorselItems, n)] {
			total += int64(c)
		}
	}
	if total == 0 {
		return rel.Relation{}
	}
	out := rel.Recycled(int(total))
	h.keys, h.of, h.out = s.Keys, mult, out.Keys
	pool.ForEach(len(h.sums), h.fill)
	return out
}

// handoff is the state of one Multiplicities or StreamFill call on the
// grid, taken from handoffs: the pieces the pool runs are bound to it once
// and sums keeps its capacity, so a call allocates nothing but its output.
type handoff struct {
	counts   rel.Counts
	keys, of []int32 // the probe keys and their multiplicities
	out      []int32 // StreamFill's output column
	sums     []int64 // per morsel: Multiplicities' totals, StreamFill's first output slots
	count    func(i int)
	fill     func(i int)
}

var handoffs = sync.Pool{New: func() any {
	h := new(handoff)
	h.count, h.fill = h.countMorsel, h.fillMorsel
	return h
}}

// takeHandoff returns a handoff from handoffs with one sum per morsel of n
// items.
func takeHandoff(n int) *handoff {
	h := handoffs.Get().(*handoff)
	m := (n + sched.MorselItems - 1) / sched.MorselItems
	h.sums = slices.Grow(h.sums[:0], m)[:m]
	return h
}

// put drops what the call read and hands h back to handoffs.
func (h *handoff) put() {
	h.counts, h.keys, h.of, h.out = rel.Counts{}, nil, nil, nil
	handoffs.Put(h)
}

// countMorsel looks morsel i's keys up, writing their multiplicities, and
// records their total.
func (h *handoff) countMorsel(i int) {
	lo := i * sched.MorselItems
	hi := min(lo+sched.MorselItems, len(h.keys))
	h.sums[i] = h.counts.OfEach(h.of[lo:hi], h.keys[lo:hi])
}

// fillMorsel writes morsel i's matches — mult[j] copies of probe key j, in
// probe order — from its first output slot on.
func (h *handoff) fillMorsel(i int) {
	lo := i * sched.MorselItems
	hi := min(lo+sched.MorselItems, len(h.of))
	keys, out, at := h.keys[lo:hi], h.out, h.sums[i]
	for j, c := range h.of[lo:hi] {
		for k := keys[j]; c > 0; c-- {
			out[at] = k
			at++
		}
	}
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
