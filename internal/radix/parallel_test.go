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

// n3ShardScan is the chain-building shard kernel the pooled n3 used to be:
// shard `shard` reads all of [lo,hi), skips the tuples it does not own and
// appends the rest to its partitions' chunk chains through a worker-private
// allocator. It is kept as the accounting reference of N3Scatter — same
// tuples per shard, same allocator request sequence, so the same
// device.Acct per (share, shard) and the same arena totals.
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

// passArenaWords sizes a pass's chunk arena as the runner does: the
// worst-case chunk population with headroom for one worker-private
// allocator per ownership shard per device share.
func passArenaWords(n int, bits uint, cfg alloc.Config) int {
	return alloc.ParallelCapWords(cfg, (n/ChunkTuples+(1<<bits)+1)*chunkWords, chunkWords, 2*sched.DefaultShards)
}

// parallelPass returns a pass over in whose arena is pre-sized for
// worker-private block allocation, with n1 already run.
func parallelPass(in rel.Relation, cfg alloc.Config, shift, bits uint) *Pass {
	n := in.Len()
	p := NewPass(in, alloc.New(cfg, passArenaWords(n, bits, cfg)), shift, bits)
	p.N1(device.New(device.APUCPU()), 0, n)
	return p
}

// gathered returns the pass's output relation, partition offsets and the
// accounting of the gather. A pass that scattered already holds its output.
func gathered(p *Pass) (rel.Relation, []int32, device.Acct) {
	out := p.out
	if out.Keys == nil {
		n := p.Items()
		out = rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	}
	offs, a := p.Gather(out)
	return out, offs, a
}

// poisoned returns an n-tuple output relation no word of which is a valid
// result, so a slot the scatter skips shows in the comparison.
func poisoned(n int) rel.Relation {
	out := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	for i := range out.Keys {
		out.Keys[i], out.RIDs[i] = alloc.PoisonWord, alloc.PoisonWord
	}
	return out
}

// TestShardedPassMatchesSerial partitions the same relation three ways —
// the serial n1..n3 kernels plus Gather, the chain-building shard reference
// plus Gather, and N3Setup / N3Scatter on a pool — with n3 split PL-style
// into a CPU share [0,a) and a GPU share [a,n), over splits that fall on
// and inside morsels, narrow and wide passes, both distributions, both
// allocator strategies (blocks smaller and larger than a chunk) and a
// non-zero hash shift. The scattered relation and offsets must equal the
// serial ones tuple for tuple (and the offsets FinalOffsetsShifted's); every
// (share, shard) accounting record, all five arena totals and Gather's
// accounting must equal the reference's.
func TestShardedPassMatchesSerial(t *testing.T) {
	cpu, gpu := device.New(device.APUCPU()), device.New(device.APUGPU())
	var pools []*sched.Pool
	for _, w := range []int{1, 2, 4} {
		pool := sched.NewPool(w)
		defer pool.Close()
		pools = append(pools, pool)
	}
	const n = 2*sched.MorselItems + 3000
	splits := []int{0, n, n / 3, sched.MorselItems, 77, n - 1000}
	allocs := []alloc.Config{
		{Strategy: alloc.Basic},
		{Strategy: alloc.Block, BlockBytes: 256}, // smaller than a chunk: every request is oversized
		{Strategy: alloc.Block, BlockBytes: 2048},
		{Strategy: alloc.Block, BlockBytes: 8192},
	}
	type shape struct {
		shift, bits uint
		allocs      []alloc.Config
	}
	shapes := []shape{
		{0, 3, allocs}, // shards clamp to 8
		{0, 6, allocs},
		{0, MaxBitsPerPass, allocs},
		{5, 6, allocs[2:3]},
	}

	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		in := rel.Gen{N: n, Dist: dist, Seed: 5}.Build()
		for _, sh := range shapes {
			sp := NewPass(in, alloc.New(alloc.Config{}, n*3+ChunkTuples*4), sh.shift, sh.bits)
			sp.N1(cpu, 0, n)
			sp.N2(cpu, 0, n)
			sp.N3(cpu, 0, n)
			serialOut, serialOffs, _ := gathered(sp)
			// A plan's only pass ends on the final boundaries: the runner
			// takes them from Gather instead of re-hashing every key.
			if final := FinalOffsetsShifted(serialOut, Plan{BitsPerPass: []uint{sh.bits}}, sh.shift); !slices.Equal(serialOffs, final) {
				t.Fatalf("%v shift=%d bits=%d: the pass's offsets differ from the re-hashed histogram's", dist, sh.shift, sh.bits)
			}

			for _, cfg := range sh.allocs {
				for _, a := range splits {
					name := fmt.Sprintf("%v shift=%d bits=%d %v/%d a=%d", dist, sh.shift, sh.bits, cfg.Strategy, cfg.BlockBytes, a)
					shares := []struct {
						d      *device.Device
						lo, hi int
					}{{cpu, 0, a}, {gpu, a, n}}

					ref := parallelPass(in, cfg, sh.shift, sh.bits)
					ref.N2Atomic(cpu, 0, n)
					shards, shift := sched.OwnerShards(ref.Partitions())
					var refAccts [][]device.Acct
					for _, s := range shares {
						if s.lo == s.hi {
							continue // the executor issues no empty share
						}
						accts := make([]device.Acct, shards)
						// Reverse shard order: the result must not care.
						for k := shards - 1; k >= 0; k-- {
							la := ref.arena.NewLocal()
							accts[k] = ref.n3ShardScan(s.lo, s.hi, int32(k), shift, la)
							la.Close()
						}
						refAccts = append(refAccts, accts)
					}
					refOut, refOffs, refGather := gathered(ref)
					if !slices.Equal(refOffs, serialOffs) || !slices.Equal(refOut.Keys, serialOut.Keys) || !slices.Equal(refOut.RIDs, serialOut.RIDs) {
						t.Fatalf("%s: reference differs from serial", name)
					}

					for _, pool := range pools {
						pp := parallelPass(in, cfg, sh.shift, sh.bits)
						pool.MapRange(0, n, func(lo, hi int) device.Acct { return pp.N2Atomic(cpu, lo, hi) })
						pp.N3Setup(pool, poisoned(n))
						si := 0
						for _, s := range shares {
							if s.lo == s.hi {
								continue
							}
							accts := pp.N3Scatter(s.lo, s.hi, pool, make([]device.Acct, sched.DefaultShards))
							if !slices.Equal(accts, refAccts[si]) {
								t.Fatalf("%s pool=%d share %d: per-shard accts\n got %+v\nwant %+v", name, pool.Workers(), si, accts, refAccts[si])
							}
							si++
						}
						if got, want := pp.arena.Stats(), ref.arena.Stats(); got != want {
							t.Fatalf("%s pool=%d: arena totals\n got %+v\nwant %+v", name, pool.Workers(), got, want)
						}
						out, offs, ga := gathered(pp)
						if ga != refGather {
							t.Fatalf("%s pool=%d: gather acct\n got %+v\nwant %+v", name, pool.Workers(), ga, refGather)
						}
						if !slices.Equal(offs, serialOffs) {
							t.Fatalf("%s pool=%d: partition offsets differ from serial", name, pool.Workers())
						}
						if !slices.Equal(out.Keys, serialOut.Keys) || !slices.Equal(out.RIDs, serialOut.RIDs) {
							t.Fatalf("%s pool=%d: scattered tuples differ from serial", name, pool.Workers())
						}
					}
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
			sp := parallelPass(in, alloc.Config{}, 0, bits)
			want := sp.N2(cpu, 0, n)
			pp := parallelPass(in, alloc.Config{}, 0, bits)
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
// arena, no scatter grid.
func (p *Pass) reset() {
	clear(p.counts)
	clear(p.fill)
	for i := range p.head {
		p.head[i], p.tail[i] = nilRef, nilRef
	}
	p.arena.Reset()
	p.scat.Release()
	p.out = rel.Relation{}
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
		p := parallelPass(rel.Gen{N: n, Dist: dist, Seed: 1}.Build(), alloc.Config{}, 0, MaxBitsPerPass)
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

// BenchmarkPartitionPass measures one radix pass over 2^20 tuples from n2
// to the gathered relation (n1, a pure hash map, runs outside the timer),
// two ways on the same input: single-stream through the chunk chains (N2,
// N3, Gather — what BasicUnit, the pilot and the external join's buffer
// rounds run), and as the runner executes it on a pool (N2Atomic morsels,
// N3Setup, N3Scatter, Gather). The pooled rows report their speed-up over
// the chunked row beside them as x-chunked, and every row's output must
// equal the chunked one's.
func BenchmarkPartitionPass(b *testing.B) {
	const n = 1 << 20
	cpu := device.New(device.APUCPU())
	out := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	for _, dist := range benchInputs {
		in := rel.Gen{N: n, Dist: dist, Seed: 1}.Build()
		for _, bits := range []uint{6, MaxBitsPerPass} {
			p := parallelPass(in, alloc.Config{}, 0, bits)
			var want rel.Relation
			var wantOffs []int32
			var chunkedNS float64
			run := func(name string, pass func() []int32) {
				b.Run(fmt.Sprintf("%v/bits=%d/%s", dist, bits, name), func(b *testing.B) {
					var offs []int32
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						p.reset()
						b.StartTimer()
						offs = pass()
					}
					b.StopTimer()
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/n, "ns/tuple")
					switch {
					case name == "chunked":
						want = rel.Relation{Keys: slices.Clone(out.Keys), RIDs: slices.Clone(out.RIDs)}
						wantOffs, chunkedNS = offs, ns
					case want.Keys == nil: // the chunked row was filtered out
					case !slices.Equal(offs, wantOffs) || !slices.Equal(out.Keys, want.Keys) || !slices.Equal(out.RIDs, want.RIDs):
						b.Fatal("partitioned relation differs from the chunked pass's")
					default:
						b.ReportMetric(chunkedNS/ns, "x-chunked")
					}
				})
			}
			run("chunked", func() []int32 {
				p.N2(cpu, 0, n)
				p.N3(cpu, 0, n)
				offs, _ := p.Gather(out)
				return offs
			})
			for _, workers := range []int{1, 2} {
				pool := sched.NewPool(workers)
				run(fmt.Sprintf("pool=%d", workers), func() []int32 {
					pool.MapRange(0, n, func(lo, hi int) device.Acct { return p.N2Atomic(cpu, lo, hi) })
					p.N3Setup(pool, out)
					var shards [sched.DefaultShards]device.Acct
					sched.MergeAccts(p.N3Scatter(0, n, pool, shards[:]))
					offs, _ := p.Gather(out)
					return offs
				})
				pool.Close()
			}
		}
	}
}
