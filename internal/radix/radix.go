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
// That structure is what every pass is charged for. The single-stream
// kernels (N1..N3 + Gather) also build it, because they may run chunk by
// chunk with no barrier between n2 and n3; the pooled n3 (parallel.go) runs
// after n2 has counted the whole relation, so it writes each tuple once, to
// the slot Gather would have copied it to, and replays the chunk requests
// through the allocator for the accounting alone.
//
// Passes consume radix bits of the key hash from the lowest bit upward and
// append stably, so after g passes the gathered relation is grouped by the
// combined partition number — the classic LSB radix property. The number
// of passes is planned from cache and TLB limits (PlanFor), as the paper
// tunes it "according to the memory hierarchy".
package radix

import (
	"fmt"

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

const (
	chunkWords  = 1 + 2*ChunkTuples // [next, k0,r0, k1,r1, ...]
	chunkOffNxt = 0
	nilRef      = int32(-1)
)

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

// Pass holds one radix pass over a relation: the partition bucket structure
// and the intermediate array n1 hands to n2/n3.
type Pass struct {
	Shift uint
	Bits  uint

	in    rel.Relation
	arena *alloc.Arena

	part   []int32 // n1 output: partition number per tuple
	hdr    []int32 // the four header columns below, one slab
	counts []int32 // partition header: tuple count
	head   []int32 // partition header: first chunk
	tail   []int32 // current append chunk
	fill   []int32 // tuples in the tail chunk

	// The pooled n3's state (parallel.go), zero on a pass whose n3 runs
	// single-stream: the relation it scatters into and the scatter of the
	// partition numbers.
	out  rel.Relation
	scat sched.Scatter
}

// NewPass prepares a pass consuming bits radix bits at the given shift,
// appending partition chunks into arena. Its two slabs come from the
// recycler — the header zeroed (counts and fill start at 0), part with
// arbitrary contents, since n1 writes every entry before n2 reads one — and
// go back with Release.
func NewPass(in rel.Relation, arena *alloc.Arena, shift, bits uint) *Pass {
	n := in.Len()
	parts := 1 << bits
	hdr := alloc.GetZeroed(4 * parts)
	p := &Pass{
		Shift:  shift,
		Bits:   bits,
		in:     in,
		arena:  arena,
		part:   alloc.GetWords(n),
		hdr:    hdr,
		counts: hdr[0*parts : 1*parts : 1*parts],
		head:   hdr[1*parts : 2*parts : 2*parts],
		tail:   hdr[2*parts : 3*parts : 3*parts],
		fill:   hdr[3*parts : 4*parts : 4*parts],
	}
	for i := range p.head {
		p.head[i] = nilRef
		p.tail[i] = nilRef
	}
	return p
}

// Release hands the pass's slabs to the recycler, once Gather has returned;
// the pass must not be used afterwards. The chunk arena is the caller's to
// release.
func (p *Pass) Release() {
	alloc.PutWords(p.part)
	alloc.PutWords(p.hdr)
	p.scat.Release()
	*p = Pass{}
}

// Items returns the number of tuples the pass processes.
func (p *Pass) Items() int { return p.in.Len() }

// Partitions returns the fan-out of this pass.
func (p *Pass) Partitions() int { return len(p.counts) }

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
// the partition's tuple count.
func (p *Pass) N2(d *device.Device, lo, hi int) device.Acct {
	var a device.Acct
	for i := lo; i < hi; i++ {
		p.counts[p.part[i]]++
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

// N3 inserts the <key, rid> pairs of tuples [lo,hi) into their partitions,
// appending through the partition header and allocating a fresh chunk from
// the software allocator whenever the tail chunk fills.
func (p *Pass) N3(d *device.Device, lo, hi int) device.Acct {
	before := p.arena.Stats()
	inK, inR := p.in.Keys, p.in.RIDs
	for i := lo; i < hi; i++ {
		pt := p.part[i]
		f := p.fill[pt]
		if p.tail[pt] == nilRef || f == ChunkTuples {
			c := p.arena.Alloc(chunkWords)
			words := p.arena.Words()
			words[c+chunkOffNxt] = nilRef
			if p.tail[pt] == nilRef {
				p.head[pt] = c
			} else {
				words[p.tail[pt]+chunkOffNxt] = c
			}
			p.tail[pt] = c
			p.fill[pt] = 0
			f = 0
		}
		words := p.arena.Words()
		off := p.tail[pt] + 1 + 2*f
		words[off] = inK[i]
		words[off+1] = inR[i]
		p.fill[pt] = f + 1
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

// Gather copies the partitioned tuples out of the chunk structure into the
// contiguous relation out (in partition order), returning the partition
// boundary offsets and the accounting of the streaming copy ("we link all
// the intermediate partitions together to form the result partition pairs").
// After the pooled n3 the tuples are in out already — it must be the
// relation N3Setup was given — and only the offsets and the same accounting
// are left to produce.
func (p *Pass) Gather(out rel.Relation) ([]int32, device.Acct) {
	var a device.Acct
	//apulint:ignore slabmake(at most 1<<MaxBitsPerPass + 1 words, and the caller keeps it)
	offs := make([]int32, len(p.counts)+1)
	pos := 0
	if p.out.Keys != nil {
		if n := p.out.Len(); out.Len() != n || n > 0 && &out.Keys[0] != &p.out.Keys[0] {
			panic("radix: Gather into a relation other than the one n3 scattered into")
		}
		for pt, c := range p.counts {
			offs[pt] = int32(pos)
			pos += int(c)
			a.Rand[device.RegionPartition] += int64(chunksOf(c)) // one per chunk the copy would visit
		}
	} else {
		words := p.arena.Words()
		for pt := range p.counts {
			offs[pt] = int32(pos)
			remaining := p.counts[pt]
			for c := p.head[pt]; c != nilRef; c = words[c+chunkOffNxt] {
				n := int32(ChunkTuples)
				if remaining < n {
					n = remaining
				}
				for j := int32(0); j < n; j++ {
					out.Keys[pos] = words[c+1+2*j]
					out.RIDs[pos] = words[c+2+2*j]
					pos++
				}
				remaining -= n
				a.Rand[device.RegionPartition]++
			}
		}
	}
	offs[len(p.counts)] = int32(pos)
	a.Items = int64(pos)
	a.SeqBytes = int64(pos) * 16 // read chunk, write contiguous
	a.Instr = int64(pos) * 4
	return offs, a
}

// Result is a fully partitioned relation.
type Result struct {
	// Rel holds the tuples grouped by partition.
	Rel rel.Relation
	// Offsets[i] is the first tuple of partition i; len = Partitions+1.
	Offsets []int32
	// Plan is the plan that produced the result.
	Plan Plan
}

// PartIdx fills idx[i] with the partition number of tuple i in Rel.
func (r Result) PartIdx(idx []int32) {
	for part := 0; part+1 < len(r.Offsets); part++ {
		for i := r.Offsets[part]; i < r.Offsets[part+1]; i++ {
			idx[i] = int32(part)
		}
	}
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

// PartitionHost partitions a relation on the host in one shot (all passes,
// no co-processing). It is the reference implementation used by tests and
// by callers that only need the data movement, not the timing.
func PartitionHost(in rel.Relation, plan Plan) Result {
	n := in.Len()
	cur := rel.Relation{
		Keys: append([]int32(nil), in.Keys...),
		RIDs: append([]int32(nil), in.RIDs...),
	}
	//apulint:ignore slabmake(the host reference's columns: one of the two is returned as Result.Rel)
	buf := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	cpu := device.New(device.APUCPU())
	var shift uint
	for _, bits := range plan.BitsPerPass {
		arena := alloc.New(alloc.Config{Strategy: alloc.Block}, n*3+1024)
		p := NewPass(cur, arena, shift, bits)
		p.N1(cpu, 0, n)
		p.N2(cpu, 0, n)
		p.N3(cpu, 0, n)
		p.Gather(buf)
		cur, buf = buf, cur
		shift += bits
	}
	return Result{Rel: cur, Offsets: FinalOffsets(cur, plan), Plan: plan}
}
