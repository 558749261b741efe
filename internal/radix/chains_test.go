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

// The paper's partition structure as the host used to build it, kept as the
// reference every n2, n3 and Gather is checked against: per partition a
// chain of ChunkTuples-tuple chunks in the pass's arena, appended through the
// partition header and walked by the gather.

const (
	chunkOffNxt = 0
	nilRef      = int32(-1)
)

// chainArena gives a reference pass an arena whose words hold its chains,
// pre-sized as a parallel phase needs (Grab never grows an arena): the
// worst-case chunk population with headroom for one worker-private
// allocator per ownership shard per device share.
func (p *Pass) chainArena(cfg alloc.Config) {
	chunks := p.in.Len()/ChunkTuples + len(p.counts) + 1
	p.arena = alloc.New(cfg, alloc.ParallelCapWords(cfg, chunks*chunkWords, chunkWords, 2*sched.DefaultShards))
}

// chains holds the partition header's chain columns: each partition's
// first chunk, its append chunk and the tuples in the append chunk.
type chains struct{ head, tail, fill []int32 }

func newChains(parts int) *chains {
	c := &chains{head: make([]int32, parts), tail: make([]int32, parts), fill: make([]int32, parts)}
	c.reset()
	return c
}

func (c *chains) reset() {
	clear(c.fill)
	for i := range c.head {
		c.head[i], c.tail[i] = nilRef, nilRef
	}
}

// add appends tuple i of p to its partition's chain, taking a fresh chunk
// from get whenever the append chunk is missing or full.
func (c *chains) add(p *Pass, i int, get func(words int) int32) {
	pt := p.part[i]
	f := c.fill[pt]
	if c.tail[pt] == nilRef || f == ChunkTuples {
		ch := get(chunkWords)
		words := p.arena.Words() // after get: a serial Alloc may grow the arena
		words[ch+chunkOffNxt] = nilRef
		if c.tail[pt] == nilRef {
			c.head[pt] = ch
		} else {
			words[c.tail[pt]+chunkOffNxt] = ch
		}
		c.tail[pt] = ch
		f = 0
	}
	off := c.tail[pt] + 1 + 2*f
	words := p.arena.Words()
	words[off], words[off+1] = p.in.Keys[i], int32(i) // the tuple's dense rid
	c.fill[pt] = f + 1
}

// n2PerTuple is the per-tuple n2: one latched increment of the partition
// header per tuple, the reference of N2's morsel histograms.
func (p *Pass) n2PerTuple(lo, hi int) device.Acct {
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

// n3ChainRef is the chain-building single-stream n3: it appends tuples
// [lo,hi) to their chains through the pass arena.
func (p *Pass) n3ChainRef(c *chains, lo, hi int) device.Acct {
	before := p.arena.Stats()
	for i := lo; i < hi; i++ {
		c.add(p, i, p.arena.Alloc)
	}
	return p.n3Acct(int64(hi-lo), p.arena.Stats().Sub(before))
}

// n3ShardScan is the chain-building shard kernel the pooled n3 used to be:
// shard `shard` reads all of [lo,hi), skips the tuples it does not own and
// appends the rest to its partitions' chains through a worker-private
// allocator — the reference of N3Shards, record for record.
func (p *Pass) n3ShardScan(c *chains, lo, hi int, shard int32, shift uint, la *alloc.Local) device.Acct {
	var n int64
	for i := lo; i < hi; i++ {
		if p.part[i]>>shift == shard {
			c.add(p, i, la.Alloc)
			n++
		}
	}
	return p.n3Acct(n, la.Stats())
}

// gatherChainRef is the chain-walking gather: it copies every chain out into
// out in partition order, one random access per chunk visited.
func (p *Pass) gatherChainRef(c *chains, out rel.Relation) ([]int32, device.Acct) {
	var a device.Acct
	offs := make([]int32, len(p.counts)+1)
	words := p.arena.Words()
	pos := 0
	for pt := range p.counts {
		offs[pt] = int32(pos)
		remaining := p.counts[pt]
		for ch := c.head[pt]; ch != nilRef; ch = words[ch+chunkOffNxt] {
			for j := int32(0); j < min(ChunkTuples, remaining); j++ {
				out.Keys[pos] = words[ch+1+2*j]
				pos++
			}
			remaining -= min(ChunkTuples, remaining)
			a.Rand[device.RegionPartition]++
		}
	}
	offs[len(p.counts)] = int32(pos)
	a.Items = int64(pos)
	a.SeqBytes = int64(pos) * 16
	a.Instr = int64(pos) * 4
	return offs, a
}

// share is one kernel call's range on one device.
type share struct {
	d      *device.Device
	lo, hi int
}

// splitShares cuts [0,n) at a as exec.Run does: a CPU share [0,a) and a GPU
// share [a,n), without the empty one the executor never issues.
func splitShares(cpu, gpu *device.Device, a, n int) []share {
	var shares []share
	for _, s := range []share{{cpu, 0, a}, {gpu, a, n}} {
		if s.lo < s.hi {
			shares = append(shares, s)
		}
	}
	return shares
}

// TestSingleStreamPassMatchesChains runs the single-stream pass — N1, N2 and
// N3 share by share, then Layout and Gather — beside the chain-building
// reference over the same shares in the same order, for the two ways the
// single-stream callers order them: step by step over a CPU share [0,a) and
// a GPU share [a,n), as exec.Run does (the external join's rounds, the
// pilot), with a at 0, n, inside and on a morsel; and n1→n2→n3 chunk by
// chunk, as BasicUnit does, with ragged chunks and tail. It covers both
// allocator strategies (blocks smaller and larger than a chunk), both
// distributions and a non-zero hash shift. Every n3 record, all five arena
// totals and the words they take, Gather's record, the offsets and every
// tuple must equal the reference's, and the pass's arena holds no words.
func TestSingleStreamPassMatchesChains(t *testing.T) {
	cpu, gpu := device.New(device.APUCPU()), device.New(device.APUGPU())
	const n = 2*sched.MorselItems + 3000
	type order struct {
		name     string
		shares   []share
		perChunk bool // n1→n2→n3 per share, not each step over every share
	}
	var orders []order
	for _, a := range []int{0, n, n / 3, 77, sched.MorselItems + 5000} {
		orders = append(orders, order{fmt.Sprintf("run a=%d", a), splitShares(cpu, gpu, a, n), false})
	}
	for _, sizes := range [][2]int{{5000, 20000}, {100, 333}} {
		var shares []share
		for lo, k := 0, 0; lo < n; k++ {
			s := share{cpu, lo, min(n, lo+sizes[k%2])}
			if k%2 == 1 {
				s.d = gpu
			}
			shares = append(shares, s)
			lo = s.hi
		}
		orders = append(orders, order{fmt.Sprintf("chunks %d/%d", sizes[0], sizes[1]), shares, true})
	}
	// run executes n1, n2 and n3 over the order's shares and returns n3's
	// record per share.
	run := func(p *Pass, n3 func(d *device.Device, lo, hi int) device.Acct, o order) []device.Acct {
		steps := []func(d *device.Device, lo, hi int) device.Acct{p.N1, p.N2, n3}
		var accts []device.Acct
		step := func(k int, s share) {
			if a := steps[k](s.d, s.lo, s.hi); k == 2 {
				accts = append(accts, a)
			}
		}
		if o.perChunk {
			for _, s := range o.shares {
				for k := range steps {
					step(k, s)
				}
			}
			return accts
		}
		for k := range steps {
			for _, s := range o.shares {
				step(k, s)
			}
		}
		return accts
	}

	allocs := []alloc.Config{
		{Strategy: alloc.Basic},
		{Strategy: alloc.Block, BlockBytes: 256}, // smaller than a chunk: every request is oversized
		{Strategy: alloc.Block, BlockBytes: 2048},
		{Strategy: alloc.Block, BlockBytes: 8192},
	}
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		in := rel.Gen{N: n, Dist: dist, Seed: 7}.Build()
		for _, sh := range [][2]uint{{0, 3}, {0, MaxBitsPerPass}, {5, 6}} {
			shift, bits := sh[0], sh[1]
			for _, cfg := range allocs {
				for _, o := range orders {
					name := fmt.Sprintf("%v shift=%d bits=%d %v/%d %s", dist, shift, bits, cfg.Strategy, cfg.BlockBytes, o.name)
					ref := NewPass(in, cfg, shift, bits)
					ref.chainArena(cfg)
					c := newChains(1 << bits)
					refAccts := run(ref, func(_ *device.Device, lo, hi int) device.Acct { return ref.n3ChainRef(c, lo, hi) }, o)
					refOut := poisoned(n)
					refOffs, refGather := ref.gatherChainRef(c, refOut)

					p := NewPass(in, cfg, shift, bits)
					accts := run(p, p.N3, o)
					p.Layout(nil)
					out := poisoned(n)
					offs, ga := p.Gather(nil, out)

					if !slices.Equal(accts, refAccts) {
						t.Fatalf("%s: n3 records\n got %+v\nwant %+v", name, accts, refAccts)
					}
					if got, want := p.arena.Stats(), ref.arena.Stats(); got != want {
						t.Fatalf("%s: arena totals\n got %+v\nwant %+v", name, got, want)
					}
					if got, want := p.arena.Used(), ref.arena.Used(); got != want || len(p.arena.Words()) != 0 {
						t.Fatalf("%s: the pass arena counts %d words (want %d) and holds %d", name, got, want, len(p.arena.Words()))
					}
					if ga != refGather {
						t.Fatalf("%s: gather record\n got %+v\nwant %+v", name, ga, refGather)
					}
					if !slices.Equal(offs, refOffs) || !slices.Equal(out.Keys, refOut.Keys) {
						t.Fatalf("%s: partitioned relation differs from the chains'", name)
					}
					for _, q := range []*Pass{p, ref} {
						q.arena.Release()
						q.Release()
					}
				}
			}
		}
	}
}
