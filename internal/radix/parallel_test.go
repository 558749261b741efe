package radix

import (
	"fmt"
	"slices"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// n3ShardScan is the scan-and-skip n3 that N3Shard's index walk replaced:
// every shard reads all of [lo,hi) and skips the tuples it does not own. It
// is kept as the reference decomposition — same tuples, same order, same
// allocator request sequence, so the same device.Acct per shard.
func (p *Pass) n3ShardScan(lo, hi int, shard int32, shift uint, la *alloc.Local) device.Acct {
	var a device.Acct
	inK, inR := p.in.Keys, p.in.RIDs
	words := p.arena.Words()

	var processed int64
	for i := lo; i < hi; i++ {
		pt := p.part[i]
		if pt>>shift != shard {
			continue
		}
		f := p.fill[pt]
		if p.tail[pt] == nilRef || f == ChunkTuples {
			c := la.Alloc(chunkWords)
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
		off := p.tail[pt] + 1 + 2*f
		words[off] = inK[i]
		words[off+1] = inR[i]
		p.fill[pt] = f + 1
		processed++
	}

	a.Items = processed
	a.Instr = processed * instrAppendRow
	a.SeqBytes = processed * 8
	a.Rand[device.RegionPartition] = processed * 2
	a.AtomicOps = processed
	a.AtomicTargets = int64(len(p.counts))
	st := la.Stats()
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	return a
}

// parallelPass returns a pass over in whose arena is pre-sized for
// worker-private block allocation, with n1 already run.
func parallelPass(in rel.Relation, bits uint) *Pass {
	n := in.Len()
	words := alloc.ParallelCapWords(alloc.Config{}, (n/ChunkTuples+(1<<bits)+1)*chunkWords, chunkWords, 4*sched.DefaultShards)
	p := NewPass(in, alloc.New(alloc.Config{}, words), 0, bits)
	p.N1(device.New(device.APUCPU()), 0, n)
	return p
}

// gathered returns the pass's output relation and partition offsets.
func gathered(p *Pass) (rel.Relation, []int32) {
	n := p.Items()
	out := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	offs, _ := p.Gather(out)
	return out, offs
}

// TestShardedPassMatchesSerial partitions the same relation three ways —
// the serial n1..n3 kernels, the scan-and-skip shard reference, and the
// indexed shard kernels executing concurrently on a pool — with n3 split
// PL-style into a CPU share [0,a) and a GPU share [a,n). The gathered
// outputs must be identical tuple for tuple (partition ownership preserves
// per-partition append order exactly) and every (share, shard) accounting
// record of the indexed kernels must equal the reference's.
func TestShardedPassMatchesSerial(t *testing.T) {
	cpu, gpu := device.New(device.APUCPU()), device.New(device.APUGPU())
	pool := sched.NewPool(4)
	defer pool.Close()
	const bits = 6

	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		in := rel.Gen{N: 2*sched.MorselItems + 3000, Dist: dist, Seed: 5}.Build()
		n := in.Len()

		sp := NewPass(in, alloc.New(alloc.Config{}, n*3+ChunkTuples*4), 0, bits)
		sp.N1(cpu, 0, n)
		sp.N2(cpu, 0, n)
		sp.N3(cpu, 0, n)
		serialOut, serialOffs := gathered(sp)

		for _, a := range []int{n, n / 3, 0} {
			shares := []struct {
				d      *device.Device
				lo, hi int
			}{{cpu, 0, a}, {gpu, a, n}}

			ref := parallelPass(in, bits)
			ref.N2Atomic(cpu, 0, n)
			shards := ref.shards(sched.DefaultShards)
			shift := ref.shardShift(shards)
			var refAccts [][]device.Acct
			for _, sh := range shares {
				accts := make([]device.Acct, shards)
				// Reverse shard order: the result must not care.
				for s := shards - 1; s >= 0; s-- {
					la := ref.arena.NewLocal()
					accts[s] = ref.n3ShardScan(sh.lo, sh.hi, int32(s), shift, la)
					la.Close()
				}
				refAccts = append(refAccts, accts)
			}

			pp := parallelPass(in, bits)
			pp.N2Atomic(cpu, 0, n)
			var owner sched.OwnerIndex
			pp.Owners(pool, &owner)
			for si, sh := range shares {
				accts := sched.Collect(pool, shards, func(s int) device.Acct {
					la := pp.arena.NewLocal()
					defer la.Close()
					return pp.N3Shard(sh.d, owner.Shard(s, sh.lo, sh.hi), la)
				})
				for s := range accts {
					if accts[s] != refAccts[si][s] {
						t.Fatalf("%v a=%d share %d shard %d: acct\n got %+v\nwant %+v", dist, a, si, s, accts[s], refAccts[si][s])
					}
				}
			}

			for i, p := range []*Pass{ref, pp} {
				name := [...]string{"scan", "indexed"}[i]
				out, offs := gathered(p)
				if !slices.Equal(offs, serialOffs) {
					t.Fatalf("%v a=%d %s: partition offsets differ from serial", dist, a, name)
				}
				if !slices.Equal(out.Keys, serialOut.Keys) || !slices.Equal(out.RIDs, serialOut.RIDs) {
					t.Fatalf("%v a=%d %s: gathered tuples differ from serial", dist, a, name)
				}
			}
		}
	}
}

// TestN2AtomicMatchesSerial runs n2's morsels concurrently on a pool: the
// published counts and the merged accounting must equal one serial N2 over
// the whole range.
func TestN2AtomicMatchesSerial(t *testing.T) {
	cpu := device.New(device.APUCPU())
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		for _, bits := range []uint{3, MaxBitsPerPass} {
			in := rel.Gen{N: 5*sched.MorselItems + 17, Dist: dist, Seed: 11}.Build()
			n := in.Len()
			sp := parallelPass(in, bits)
			want := sp.N2(cpu, 0, n)
			pp := parallelPass(in, bits)
			got := pool.MapRange(0, n, func(lo, hi int) device.Acct { return pp.N2Atomic(cpu, lo, hi) })
			if got != want {
				t.Fatalf("%v bits=%d: acct\n got %+v\nwant %+v", dist, bits, got, want)
			}
			if !slices.Equal(pp.counts, sp.counts) {
				t.Fatalf("%v bits=%d: partition counts differ from serial N2", dist, bits)
			}
		}
	}
}

// reset returns the pass to its state after n1: empty partitions, empty
// arena.
func (p *Pass) reset() {
	clear(p.counts)
	clear(p.fill)
	for i := range p.head {
		p.head[i], p.tail[i] = nilRef, nilRef
	}
	p.arena.Reset()
}

// benchInputs names the 2^20-tuple relations the kernel benchmarks run on.
var benchInputs = []rel.Distribution{rel.Uniform, rel.HighSkew}

// reportPerTuple adds the benchmark's ns/tuple for n tuples per iteration.
func reportPerTuple(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
}

// BenchmarkN2Atomic measures the n2 step as the runner executes it: range
// morsels of one 8-bit pass on the pool.
func BenchmarkN2Atomic(b *testing.B) {
	const n = 1 << 20
	cpu := device.New(device.APUCPU())
	for _, dist := range benchInputs {
		p := parallelPass(rel.Gen{N: n, Dist: dist, Seed: 1}.Build(), MaxBitsPerPass)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/pool=%d", dist, workers), func(b *testing.B) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(p.counts)
					pool.MapRange(0, n, func(lo, hi int) device.Acct { return p.N2Atomic(cpu, lo, hi) })
				}
				reportPerTuple(b, n)
			})
		}
	}
}

// BenchmarkN3Shard measures the n3 step as the runner executes it: the
// ownership shards of one 8-bit pass on the pool, walking an owner index
// built outside the timer (BenchmarkOwnerIndex in internal/sched prices
// the build).
func BenchmarkN3Shard(b *testing.B) {
	const n = 1 << 20
	cpu := device.New(device.APUCPU())
	for _, dist := range benchInputs {
		p := parallelPass(rel.Gen{N: n, Dist: dist, Seed: 1}.Build(), MaxBitsPerPass)
		shards := p.shards(sched.DefaultShards)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/pool=%d", dist, workers), func(b *testing.B) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				var owner sched.OwnerIndex
				p.Owners(pool, &owner)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p.reset()
					b.StartTimer()
					pool.MapShards(shards, func(s int) device.Acct {
						la := p.arena.NewLocal()
						defer la.Close()
						return p.N3Shard(cpu, owner.Shard(s, 0, n), la)
					})
				}
				reportPerTuple(b, n)
			})
		}
	}
}
