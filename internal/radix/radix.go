// Package radix implements the partition phase of the partitioned hash join
// (PHJ): multi-pass radix partitioning on the hash values of the keys,
// following Boncz et al.'s radix join as adopted by the paper (Sec. 3.1).
//
// Each pass is a step series with the paper's three fine-grained steps:
//
//	(n1) compute partition number,
//	(n2) visit the partition header (latched tuple-count increment),
//	(n3) insert the <key, rid> pair into the partition.
//
// Partitions are stored in "a structure similar to the hash table ... where
// a bucket is used to store a partition": each partition is a chain of
// fixed-size chunks allocated from the software memory allocator, and n3
// appends through the partition header. There is consequently no global
// prefix-sum barrier between n2 and n3 — the three steps form one pipeline,
// exactly what the PL scheme needs — and the partition output buffer is one
// of the dynamic allocations whose allocator behaviour Fig. 11 studies.
//
// That structure is what every pass is charged for, and the host builds
// none of it. n3 only charges the chains, on an arena that only counts:
// single-stream (N3) it counts each partition's appends and charges a chunk
// request whenever one fills, which works chunk by chunk with no barrier
// between n2 and n3; on a pool (N3Shards) it charges the ownership shards'
// requests as worker-private allocators would serve them. The keys move
// once, in Gather, through the tree's one counting scatter (sched.Scatter),
// straight to the slots a walk of the chains would copy them to.
//
// Passes consume radix bits of the key hash from the lowest bit upward and
// append stably, so after g passes the gathered relation is grouped by the
// combined partition number — the classic LSB radix property. The number
// of passes is planned from cache and TLB limits (PlanFor), as the paper
// tunes it "according to the memory hierarchy".
package radix

import (
	"fmt"
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// Profiled per-step instruction constants, mirroring htab's role for the
// build/probe steps.
const (
	instrPartNum   = hash.InstrPerHash + 4
	instrVisitHdr  = 6
	instrAppendRow = 11
)

// ChunkTuples is the number of <key,rid> pairs per partition chunk.
const ChunkTuples = 64

// chunkWords is the size of one chunk request: [next, k0,r0, k1,r1, ...].
const chunkWords = 1 + 2*ChunkTuples

// chunksOf returns the number of chunks holding c tuples of one partition.
func chunksOf(c int32) int32 { return (c + ChunkTuples - 1) / ChunkTuples }

// MaxBitsPerPass bounds the fan-out of one pass. 2^8 = 256 open partition
// streams keep within TLB reach, mirroring the paper's TLB-aware tuning.
const MaxBitsPerPass = 8

// Plan describes a multi-pass partitioning.
type Plan struct {
	// BitsPerPass holds the radix bits consumed by each pass, low bits first.
	BitsPerPass []uint
}

// TotalBits returns the summed radix bits.
func (p Plan) TotalBits() uint {
	var t uint
	for _, b := range p.BitsPerPass {
		t += b
	}
	return t
}

// Partitions returns the total partition count, 2^TotalBits.
func (p Plan) Partitions() int { return 1 << p.TotalBits() }

// Passes returns the number of passes.
func (p Plan) Passes() int { return len(p.BitsPerPass) }

// String renders the plan, e.g. "2 pass(es), 12 bits, 4096 partitions".
func (p Plan) String() string {
	return fmt.Sprintf("%d pass(es), %d bits, %d partitions",
		p.Passes(), p.TotalBits(), p.Partitions())
}

// PlanFor plans passes so that an average partition pair of the build
// relation fits within targetBytes (typically a fraction of the shared L2),
// with at most MaxBitsPerPass bits per pass.
func PlanFor(buildTuples int, targetBytes int64) Plan {
	if targetBytes <= 0 {
		targetBytes = 1 << 20
	}
	bytes := int64(buildTuples) * 8
	var bits uint
	for bytes>>bits > targetBytes && bits < 20 {
		bits++
	}
	// Radix joins always use a substantial fan-out: too few partitions
	// serialize the latched partition headers under the GPU's thread
	// count, and the per-partition hash tables would not be
	// cache-localized anyway.
	if bits < 6 {
		bits = 6
	}
	return PlanBits(bits)
}

// PlanBits splits a fan-out of 2^bits partitions into passes of at most
// MaxBitsPerPass bits, low bits first.
func PlanBits(bits uint) Plan {
	var plan Plan
	for bits > 0 {
		b := bits
		if b > MaxBitsPerPass {
			b = MaxBitsPerPass
		}
		plan.BitsPerPass = append(plan.BitsPerPass, b)
		bits -= b
	}
	return plan
}

// Pass holds one radix pass over a relation: the partition headers, the
// intermediate array n1 hands to n2/n3, the arena n3 charges the chunk
// chains to, and the scatter Gather moves the tuples with.
type Pass struct {
	Shift uint
	Bits  uint

	in    rel.Relation
	arena *alloc.Arena // holds no words: n3 only counts (Count, Fold)

	part     []int32 // n1 output: partition number per tuple
	hdr      []int32 // the two header columns below, one slab
	counts   []int32 // partition header: tuple count
	appended []int32 // tuples the single-stream n3 has charged per partition

	// scat lays out every partition's final slots (Layout).
	scat sched.Scatter
}

// NewPass prepares a pass consuming bits radix bits at the given shift,
// charging partition chunks to an arena of its own under cfg. Its two
// slabs come from the recycler — the header zeroed and never below the
// recycler's smallest class, so a narrow pass allocates nothing; part with
// arbitrary contents, since n1 writes every entry before n2 reads one —
// and go back with Release. A pass takes at most MaxBitsPerPass bits: wider
// fan-outs are split into passes (PlanBits).
func NewPass(in rel.Relation, cfg alloc.Config, shift, bits uint) *Pass {
	if bits > MaxBitsPerPass {
		panic(fmt.Sprintf("radix: a pass of %d bits, above MaxBitsPerPass (%d)", bits, MaxBitsPerPass))
	}
	parts := 1 << bits
	hdr := alloc.GetZeroed(max(2*parts, alloc.MinSlabWords))
	return &Pass{
		Shift:    shift,
		Bits:     bits,
		in:       in,
		arena:    alloc.New(cfg, 0),
		part:     alloc.GetWords(in.Len()),
		hdr:      hdr,
		counts:   hdr[:parts:parts],
		appended: hdr[parts : 2*parts],
	}
}

// Release hands the pass's slabs to the recycler, once Gather has returned;
// the pass must not be used afterwards.
func (p *Pass) Release() {
	alloc.PutWords(p.part)
	alloc.PutWords(p.hdr)
	p.scat.Release()
	*p = Pass{}
}

// N1 computes the partition number for tuples [lo,hi). Like b1/p1 it is a
// pure hash computation the GPU accelerates heavily.
func (p *Pass) N1(d *device.Device, lo, hi int) device.Acct {
	var a device.Acct
	keys := p.in.Keys
	for i := lo; i < hi; i++ {
		p.part[i] = int32(hash.RadixPass(uint32(keys[i]), p.Shift, p.Bits))
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrPartNum
	a.SeqBytes = n * 8
	return a
}

// N2 visits the partition header for tuples [lo,hi): a latched increment of
// the partition's tuple count. It is safe on concurrent range morsels: the
// range counts into a private stack-resident histogram (a pass fans out to
// at most 1<<MaxBitsPerPass partitions) and publishes each non-zero entry
// with one sync/atomic add, so concurrent morsels meet on the shared headers
// once per partition instead of once per tuple. Integer sums commute, so the
// final counts are schedule-free; the accounting is a function of hi-lo only.
func (p *Pass) N2(d *device.Device, lo, hi int) device.Acct {
	var a device.Acct
	var h [1 << MaxBitsPerPass]int32
	for _, pt := range p.part[lo:hi] {
		h[pt]++
	}
	for pt, c := range h[:len(p.counts)] {
		if c != 0 {
			atomic.AddInt32(&p.counts[pt], c)
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHdr
	a.SeqBytes = n * 4
	a.Rand[device.RegionPartition] = n
	a.AtomicOps = n
	a.AtomicTargets = int64(len(p.counts))
	return a
}

// N3 is n3 on one stream: it charges the appends of tuples [lo,hi) to their
// partitions' chunk chains, charging the software allocator a fresh chunk
// whenever a partition's running count reaches a multiple of ChunkTuples —
// the append that finds its tail chunk missing or full. The shares must be
// charged in index order, tuples [0,lo) first, as the executor's CPU and
// GPU shares and BasicUnit's chunks are; the tuples move later, in Gather.
func (p *Pass) N3(d *device.Device, lo, hi int) device.Acct {
	before := p.arena.Stats()
	for _, pt := range p.part[lo:hi] {
		if p.appended[pt]%ChunkTuples == 0 {
			p.arena.Count(1, chunkWords)
		}
		p.appended[pt]++
	}
	return p.n3Acct(int64(hi-lo), p.arena.Stats().Sub(before))
}

// n3Acct is the accounting of appending n tuples whose chunk requests cost
// the allocator st.
func (p *Pass) n3Acct(n int64, st alloc.Stats) device.Acct {
	var a device.Acct
	a.Items = n
	a.Instr = n * instrAppendRow
	a.SeqBytes = n * 8 // streamed input reads
	a.Rand[device.RegionPartition] = n * 2
	a.AtomicOps = n // latched append position on the partition header
	a.AtomicTargets = int64(len(p.counts))
	a.AllocAtomics = st.GlobalAtomics
	a.LocalOps = st.LocalOps
	return a
}

// Layout lays out every partition's final slots: a sched.Scatter of n1's
// partition numbers on pool, whose grid is over the whole relation and
// independent of the pool. Call it once n1 has covered [0,n) and before the
// pooled n3 or Gather — the runner hangs it on n2's After hook, since its
// pooled n3 reads the cuts; the grid goes back with Release.
func (p *Pass) Layout(pool *sched.Pool) {
	p.scat.Setup(pool, p.part, 0, len(p.counts))
}

// Gather links the partitioned tuples into the contiguous relation out, in
// partition order ("we link all the intermediate partitions together to form
// the result partition pairs"), and returns the partition boundary offsets
// with the accounting of the streaming copy out of the chunk chains, which
// the model charges for <key, rid> pairs. The keys move once, on pool,
// straight to the slots Layout laid out: a partition's tuples in input
// order, which is the order its chain holds them in.
func (p *Pass) Gather(pool *sched.Pool, out rel.Relation) ([]int32, device.Acct) {
	var a device.Acct
	p.scat.Move(pool, 0, p.in.Len(), sched.Cols{out.Keys}, sched.Cols{p.in.Keys})
	//apulint:ignore slabmake(at most 1<<MaxBitsPerPass + 1 words, and the caller keeps it)
	offs := make([]int32, len(p.counts)+1)
	pos := 0
	for pt, c := range p.counts {
		offs[pt] = int32(pos)
		pos += int(c)
		a.Rand[device.RegionPartition] += int64(chunksOf(c)) // one per chunk the copy visits
	}
	offs[len(p.counts)] = int32(pos)
	a.Items = int64(pos)
	a.SeqBytes = int64(pos) * 16 // read chunk, write contiguous
	a.Instr = int64(pos) * 4
	return offs, a
}

// FinalOffsets computes the partition boundaries of a fully partitioned
// relation by histogramming the combined radix bits. It is used after the
// last pass, whose per-pass offsets only cover that pass's fan-out.
func FinalOffsets(r rel.Relation, plan Plan) []int32 {
	return FinalOffsetsShifted(r, plan, 0)
}

// FinalOffsetsShifted is FinalOffsets for partitionings that started at a
// non-zero hash shift (the external join's per-pair sub-partitioning).
func FinalOffsetsShifted(r rel.Relation, plan Plan, shift uint) []int32 {
	total := plan.TotalBits()
	parts := 1 << total
	counts := alloc.GetZeroed(parts)
	for _, k := range r.Keys {
		counts[hash.RadixPass(uint32(k), shift, total)]++
	}
	//apulint:ignore slabmake(the result: the caller keeps the offsets, one word per partition)
	offs := make([]int32, parts+1)
	var sum int32
	for i, c := range counts {
		offs[i] = sum
		sum += c
	}
	offs[parts] = sum
	alloc.PutWords(counts)
	return offs
}
