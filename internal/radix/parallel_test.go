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

// parallelPass returns a pass over in with n1 already run.
func parallelPass(in rel.Relation, cfg alloc.Config, shift, bits uint) *Pass {
	p := NewPass(in, cfg, shift, bits)
	p.N1(device.New(device.APUCPU()), 0, in.Len())
	return p
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
// the chain-building single-stream reference, the chain-building shard
// reference, and Layout / N3Shards / Gather on a pool — with n3 split
// PL-style into a CPU share [0,a) and a GPU share [a,n), over splits that
// fall on and inside morsels, narrow and wide passes, both distributions,
// both allocator strategies (blocks smaller and larger than a chunk) and a
// non-zero hash shift. The pooled relation and offsets must equal the
// serial ones tuple for tuple (and the offsets FinalOffsetsShifted's); every
// (share, shard) accounting record, all five arena totals and the words
// they take, and Gather's accounting must equal the shard reference's, and
// the pooled pass's arena holds no words.
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
			sp := parallelPass(in, alloc.Config{}, sh.shift, sh.bits)
			sp.chainArena(alloc.Config{})
			sp.n2PerTuple(0, n)
			sc := newChains(1 << sh.bits)
			sp.n3ChainRef(sc, 0, n)
			serialOut := poisoned(n)
			serialOffs, _ := sp.gatherChainRef(sc, serialOut)
			// A plan's only pass ends on the final boundaries: the runner
			// takes them from Gather instead of re-hashing every key.
			if final := FinalOffsetsShifted(serialOut, Plan{BitsPerPass: []uint{sh.bits}}, sh.shift); !slices.Equal(serialOffs, final) {
				t.Fatalf("%v shift=%d bits=%d: the pass's offsets differ from the re-hashed histogram's", dist, sh.shift, sh.bits)
			}

			for _, cfg := range sh.allocs {
				for _, a := range splits {
					name := fmt.Sprintf("%v shift=%d bits=%d %v/%d a=%d", dist, sh.shift, sh.bits, cfg.Strategy, cfg.BlockBytes, a)
					shares := splitShares(cpu, gpu, a, n)

					ref := parallelPass(in, cfg, sh.shift, sh.bits)
					ref.chainArena(cfg)
					ref.N2(cpu, 0, n)
					rc := newChains(1 << sh.bits)
					shards, shift := sched.OwnerShards(len(ref.counts))
					var refAccts [][]device.Acct
					for _, s := range shares {
						accts := make([]device.Acct, shards)
						// Reverse shard order: the result must not care.
						for k := shards - 1; k >= 0; k-- {
							la := ref.arena.NewLocal()
							accts[k] = ref.n3ShardScan(rc, s.lo, s.hi, int32(k), shift, la)
							la.Close()
						}
						refAccts = append(refAccts, accts)
					}
					refOut := poisoned(n)
					refOffs, refGather := ref.gatherChainRef(rc, refOut)
					if !slices.Equal(refOffs, serialOffs) || !slices.Equal(refOut.Keys, serialOut.Keys) || !slices.Equal(refOut.RIDs, serialOut.RIDs) {
						t.Fatalf("%s: reference differs from serial", name)
					}

					for _, pool := range pools {
						pp := parallelPass(in, cfg, sh.shift, sh.bits)
						pool.MapRange(0, n, func(lo, hi int) device.Acct { return pp.N2(cpu, lo, hi) })
						pp.Layout(pool)
						for si, s := range shares {
							accts := pp.N3Shards(s.lo, s.hi, make([]device.Acct, sched.DefaultShards))
							if !slices.Equal(accts, refAccts[si]) {
								t.Fatalf("%s pool=%d share %d: per-shard accts\n got %+v\nwant %+v", name, pool.Workers(), si, accts, refAccts[si])
							}
						}
						if got, want := pp.arena.Stats(), ref.arena.Stats(); got != want {
							t.Fatalf("%s pool=%d: arena totals\n got %+v\nwant %+v", name, pool.Workers(), got, want)
						}
						if got, want := pp.arena.Used(), ref.arena.Used(); got != want || len(pp.arena.Words()) != 0 {
							t.Fatalf("%s pool=%d: the pass arena counts %d words (want %d) and holds %d", name, pool.Workers(), got, want, len(pp.arena.Words()))
						}
						out := poisoned(n)
						offs, ga := pp.Gather(pool, out)
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

// TestN2AtomicMatchesSerial runs N2's morsels concurrently on a pool: the
// published counts and the merged accounting must equal one per-tuple n2
// over the whole range.
func TestN2AtomicMatchesSerial(t *testing.T) {
	cpu := device.New(device.APUCPU())
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		for _, bits := range []uint{3, MaxBitsPerPass} {
			in := rel.Gen{N: 5*sched.MorselItems + 17, Dist: dist, Seed: 11}.Build()
			n := in.Len()
			sp := parallelPass(in, alloc.Config{}, 0, bits)
			want := sp.n2PerTuple(0, n)
			pp := parallelPass(in, alloc.Config{}, 0, bits)
			got := pool.MapRange(0, n, func(lo, hi int) device.Acct { return pp.N2(cpu, lo, hi) })
			if got != want {
				t.Fatalf("%v bits=%d: acct\n got %+v\nwant %+v", dist, bits, got, want)
			}
			if !slices.Equal(pp.counts, sp.counts) {
				t.Fatalf("%v bits=%d: partition counts differ from the per-tuple n2", dist, bits)
			}
		}
	}
}

// reset returns the pass to its state after n1: empty partitions, a fresh
// arena (the benchmarks' passes run under the default alloc.Config) — with
// words for the chains if chains is set, counting only otherwise — and no
// layout.
func (p *Pass) reset(chains bool) {
	clear(p.hdr)
	p.arena.Release()
	p.arena = alloc.New(alloc.Config{}, 0)
	if chains {
		p.chainArena(alloc.Config{})
	}
	p.scat.Release()
}

// benchInputs names the 2^20-tuple relations the kernel benchmarks run on.
var benchInputs = []rel.Distribution{rel.Uniform, rel.HighSkew}

// reportPerTuple adds the benchmark's ns/tuple for n tuples per iteration.
func reportPerTuple(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
}

// BenchmarkN2 measures the n2 step as the runner executes it: range morsels
// of one 8-bit pass on the pool.
func BenchmarkN2(b *testing.B) {
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
					pool.MapRange(0, n, func(lo, hi int) device.Acct { return p.N2(cpu, lo, hi) })
				}
				reportPerTuple(b, n)
			})
		}
	}
}

// BenchmarkPartitionPass measures one radix pass over 2^20 tuples from n2
// to the gathered relation (n1, a pure hash map, runs outside the timer),
// five ways on the same input: through the chunk chains the host used to
// build (the test reference, which moves <key, rid> pairs); single-stream
// as BasicUnit and the pilot run n2 and n3 (N2, N3, then Layout and Gather
// with no pool), keys only; as the runner executes it on a pool (N2
// morsels, Layout, N3Shards, Gather), keys only; and single-stream into a
// relation with a RID column, as the external join's buffer rounds gather
// their sub-joins' pairs. The rows after the first report their speed-up
// over the chains as x-chains, and every row's output — keys, offsets, and
// RIDs where it has them — must equal the chains'.
func BenchmarkPartitionPass(b *testing.B) {
	const n = 1 << 20
	cpu := device.New(device.APUCPU())
	pairs := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	keys := rel.Relation{Keys: pairs.Keys}
	for _, dist := range benchInputs {
		in := rel.Gen{N: n, Dist: dist, Seed: 1}.Build()
		for _, bits := range []uint{6, MaxBitsPerPass} {
			p := parallelPass(in, alloc.Config{}, 0, bits)
			c := newChains(1 << bits)
			var want rel.Relation
			var wantOffs []int32
			var chainsNS float64
			run := func(name string, out rel.Relation, pass func() []int32) {
				b.Run(fmt.Sprintf("%v/bits=%d/%s", dist, bits, name), func(b *testing.B) {
					var offs []int32
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						p.reset(name == "chains")
						c.reset()
						for j := range pairs.Keys {
							pairs.Keys[j], pairs.RIDs[j] = alloc.PoisonWord, alloc.PoisonWord
						}
						b.StartTimer()
						offs = pass()
					}
					b.StopTimer()
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/n, "ns/tuple")
					switch {
					case name == "chains":
						want = rel.Relation{Keys: slices.Clone(out.Keys), RIDs: slices.Clone(out.RIDs)}
						wantOffs, chainsNS = offs, ns
					case want.Keys == nil: // the chains row was filtered out
					case !slices.Equal(offs, wantOffs) || !slices.Equal(out.Keys, want.Keys) ||
						out.RIDs != nil && !slices.Equal(out.RIDs, want.RIDs):
						b.Fatal("partitioned relation differs from the chains'")
					default:
						b.ReportMetric(chainsNS/ns, "x-chains")
					}
				})
			}
			run("chains", pairs, func() []int32 {
				p.N2(cpu, 0, n)
				p.n3ChainRef(c, 0, n)
				offs, _ := p.gatherChainRef(c, pairs)
				return offs
			})
			serial := func(out rel.Relation) func() []int32 {
				return func() []int32 {
					p.N2(cpu, 0, n)
					p.N3(cpu, 0, n)
					p.Layout(nil)
					offs, _ := p.Gather(nil, out)
					return offs
				}
			}
			run("serial", keys, serial(keys))
			for _, workers := range []int{1, 2} {
				pool := sched.NewPool(workers)
				run(fmt.Sprintf("pool=%d", workers), keys, func() []int32 {
					pool.MapRange(0, n, func(lo, hi int) device.Acct { return p.N2(cpu, lo, hi) })
					p.Layout(pool)
					var shards [sched.DefaultShards]device.Acct
					sched.MergeAccts(p.N3Shards(0, n, shards[:]))
					offs, _ := p.Gather(pool, keys)
					return offs
				})
				pool.Close()
			}
			run("pairs", pairs, serial(pairs))
		}
	}
}
