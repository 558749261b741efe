package htab

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// b3ShardIdx and b4ShardIdx are the insert kernels B3Shard / B4Shard were
// before the contiguous layout: a shard walks an ascending, sparse list of
// its tuple indices — the build's owner index — over the build's own
// columns. They are kept as the reference decomposition: same tuples, same
// order, same allocator request sequence, so the same device.Acct per
// (step, share, shard).
func (t *Table) b3ShardIdx(d *device.Device, keys, bucket, node []int32, idx []int32, la *alloc.Local) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()

	var created int64
	for _, i := range idx {
		b := bucket[i]
		key := keys[i]
		var visited int32 = 1
		kn := t.Head[b]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
			visited++
		}
		if kn == nilRef {
			kn = la.Alloc(keyNodeWords)
			words[kn+keyOffKey] = key
			words[kn+keyOffRIDHead] = nilRef
			words[kn+keyOffNext] = t.Head[b]
			t.Head[b] = kn
			created++
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
	}
	t.numKeys.Add(created)

	processed := int64(len(idx))
	a.Items = processed
	a.Instr += created * instrCreateNode
	a.AtomicOps = created
	a.SeqBytes = processed * 12
	a.AtomicTargets = int64(t.nBuckets)
	st := la.Stats()
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	div.Flush(&a)
	return a
}

func (t *Table) b4ShardIdx(rids, node []int32, idx []int32, la *alloc.Local) device.Acct {
	var a device.Acct
	words := t.arena.Words()
	before := la.Stats()

	for _, i := range idx {
		kn := node[i]
		rn := la.Alloc(ridNodeWords)
		words[rn+ridOffRID] = rids[i]
		words[rn+ridOffNext] = words[kn+keyOffRIDHead]
		words[kn+keyOffRIDHead] = rn
	}

	processed := int64(len(idx))
	a.Items = processed
	a.Instr = processed * instrInsertRID
	a.SeqBytes = processed * 8
	a.Rand[device.RegionHashTable] = processed * 2
	a.AtomicOps = processed
	a.AtomicTargets = max(t.numKeys.Load(), 1)
	st := la.Stats().Sub(before)
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	return a
}

// b2AtomicRef is the pooled b2 before it only charged: B2 with a sync/atomic
// increment of the bucket count, run over concurrent range morsels. It is
// kept as the reference B2Charge's records are held to.
func (t *Table) b2AtomicRef(d *device.Device, bucket, work []int32, lo, hi int) device.Acct {
	var a device.Acct
	for i := lo; i < hi; i++ {
		c := atomic.AddInt32(&t.Count[bucket[i]], 1)
		if work != nil {
			work[i] = c
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8
	a.Rand[device.RegionHashTable] = n
	a.AtomicOps = n
	a.AtomicTargets = int64(t.nBuckets)
	return a
}

// p3Bare and p4Bare are P3 and P4 with the model taken out: the same walks
// and the same node refs and pair count, but no device.Acct, no DivTracker
// and no output charge. BenchmarkP3P4 runs them beside the kernels, so what
// the accounting costs is measured.
func (t *Table) p3Bare(keys, head, node []int32, lo, hi int) {
	words := t.arena.Words()
	for i := lo; i < hi; i++ {
		key := keys[i]
		kn := head[i]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
		}
		node[i] = kn
	}
}

func (t *Table) p4Bare(node []int32, out *Out, lo, hi int) {
	words := t.arena.Words()
	var pairs int64
	for i := lo; i < hi; i++ {
		kn := node[i]
		if kn == nilRef {
			continue
		}
		for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
			pairs++
		}
	}
	out.Pairs += pairs
}

// ownedIdx is one shard's list of the owner index the reference kernels
// walk: the tuples of [lo,hi) whose bucket the shard owns, ascending.
func ownedIdx(bucket []int32, shift uint, shard, lo, hi int) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		if int(bucket[i]>>shift) == shard {
			out = append(out, int32(i))
		}
	}
	return out
}

// buildSerial runs the single-stream b1..b4 pipeline.
func buildSerial(r rel.Relation) *Table {
	n := r.Len()
	arena := alloc.New(alloc.Config{}, n*6+64)
	t := New(n, arena)
	cpu := device.New(device.APUCPU())
	bucket := make([]int32, n)
	node := make([]int32, n)
	t.B1(cpu, r.Keys, bucket, 0, n)
	t.B2(cpu, bucket, nil, 0, n)
	t.B3(cpu, r.Keys, bucket, node, 0, n, nil)
	t.B4(cpu, r.RIDs, node, 0, n)
	return t
}

// insertBuild is a build after b1, ready for the ownership-shard insert
// steps as a pool runs them — b2 only charges there, so no bucket is
// counted yet: a CPU and a GPU table — one table twice unless the build
// keeps separate tables — and b1's bucket numbers. A PHJ build side is
// sorted by a radix partition first, as the partition phase leaves it, and
// offsets holds its partition boundaries.
type insertBuild struct {
	tables       [2]*Table
	r            rel.Relation
	bucket, node []int32
	offsets      []int32
	shift        uint
}

// newInsertBuild builds over r with the given allocator: SHJ when bits is
// 0, else PHJ over 1<<bits partitions.
func newInsertBuild(r rel.Relation, bits uint, separate bool, cfg alloc.Config) *insertBuild {
	n := r.Len()
	ib := &insertBuild{r: r, bucket: make([]int32, n), node: make([]int32, n)}
	var partIdx []int32
	if bits > 0 {
		ib.r, partIdx, ib.offsets = byPartition(r, bits)
	}
	newTable := func() *Table {
		arena := alloc.New(cfg, alloc.ParallelCapWords(cfg, n*5+64, 3, 4*sched.DefaultShards))
		if bits > 0 {
			return NewSeg(1<<bits, max(n>>bits, 1), 0, bits, arena)
		}
		return New(n, arena)
	}
	ib.tables[0] = newTable()
	ib.tables[1] = ib.tables[0]
	if separate {
		ib.tables[1] = newTable()
	}
	cpu := device.New(device.APUCPU())
	t := ib.tables[0]
	if bits > 0 {
		t.B1Seg(cpu, ib.r.Keys, partIdx, ib.bucket, 0, n)
	} else {
		t.B1(cpu, ib.r.Keys, ib.bucket, 0, n)
	}
	_, ib.shift = sched.OwnerShards(t.nBuckets)
	return ib
}

// newSerialBuild is newInsertBuild's build run to the end with the
// single-stream kernels, every step of it split at cut between the CPU and
// the GPU share, as a DD build splits them.
func newSerialBuild(r rel.Relation, bits uint, separate bool, cfg alloc.Config, cut int) *insertBuild {
	ib := newInsertBuild(r, bits, separate, cfg)
	shares := ib.shares(cut)
	for _, sh := range shares {
		sh.t.B2(sh.d, ib.bucket, nil, sh.lo, sh.hi)
	}
	for _, sh := range shares {
		sh.t.B3(sh.d, ib.r.Keys, ib.bucket, ib.node, sh.lo, sh.hi, nil)
	}
	for _, sh := range shares {
		sh.t.B4(sh.d, ib.r.RIDs, ib.node, sh.lo, sh.hi)
	}
	return ib
}

// byPartition returns r stably sorted by its radix partition over the low
// bits of the key hash, the partition of each tuple and the partition
// boundaries.
func byPartition(r rel.Relation, bits uint) (rel.Relation, []int32, []int32) {
	n := r.Len()
	parts := 1 << bits
	offsets := make([]int32, parts+1)
	for _, k := range r.Keys {
		offsets[hash.RadixPass(uint32(k), 0, bits)+1]++
	}
	for p := 0; p < parts; p++ {
		offsets[p+1] += offsets[p]
	}
	out := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	partIdx := make([]int32, n)
	at := slices.Clone(offsets)
	for i, k := range r.Keys {
		p := hash.RadixPass(uint32(k), 0, bits)
		out.Keys[at[p]], out.RIDs[at[p]], partIdx[at[p]] = k, r.RIDs[i], int32(p)
		at[p]++
	}
	return out, partIdx, offsets
}

// share is one device's [lo,hi) slice of a step on that device's table.
type share struct {
	d      *device.Device
	t      *Table
	lo, hi int
}

// shares splits [0,n) at cut into a CPU and a GPU share, as a PL ratio cuts
// one step.
func (ib *insertBuild) shares(cut int) []share {
	return []share{
		{device.New(device.APUCPU()), ib.tables[0], 0, cut},
		{device.New(device.APUGPU()), ib.tables[1], cut, ib.r.Len()},
	}
}

// shards returns the ownership shard count of the build's geometry.
func (ib *insertBuild) shards() int {
	shards, _ := sched.OwnerShards(ib.tables[0].nBuckets)
	return shards
}

// b2Records runs b2 over every non-empty share — the executor dispatches no
// empty one — and returns one record per share: the pooled b2's charge, or
// with ref the atomic reference over range morsels on the pool, which also
// counts the share's tuples into the share's table.
func (ib *insertBuild) b2Records(pool *sched.Pool, shares []share, ref bool) []device.Acct {
	var out []device.Acct
	for _, sh := range shares {
		if sh.lo == sh.hi {
			continue
		}
		if !ref {
			out = append(out, sh.t.B2Charge(sh.lo, sh.hi))
			continue
		}
		out = append(out, pool.MapRange(sh.lo, sh.hi, func(lo, hi int) device.Acct {
			return sh.t.b2AtomicRef(sh.d, ib.bucket, nil, lo, hi)
		}))
	}
	return out
}

// insertIdx runs b3 over b3Shares, then b4 over b4Shares, with the
// reference kernels: every shard walks its owner-index list of the share,
// the shards one after another in the given order. It returns every (step,
// share, shard) accounting record.
func (ib *insertBuild) insertIdx(b3Shares, b4Shares []share, order []int) (b3, b4 [][]device.Acct) {
	for _, sh := range b3Shares {
		accts := make([]device.Acct, ib.shards())
		for _, s := range order {
			la := sh.t.arena.NewLocal()
			accts[s] = sh.t.b3ShardIdx(sh.d, ib.r.Keys, ib.bucket, ib.node, ownedIdx(ib.bucket, ib.shift, s, sh.lo, sh.hi), la)
			la.Close()
		}
		b3 = append(b3, accts)
	}
	for _, sh := range b4Shares {
		accts := make([]device.Acct, ib.shards())
		for _, s := range order {
			la := sh.t.arena.NewLocal()
			accts[s] = sh.t.b4ShardIdx(ib.r.RIDs, ib.node, ownedIdx(ib.bucket, ib.shift, s, sh.lo, sh.hi), la)
			la.Close()
		}
		b4 = append(b4, accts)
	}
	return b3, b4
}

// owners lays out the build's insert ownership, as b3's ParSetup does.
func (ib *insertBuild) owners(pool *sched.Pool) *Owners {
	var o Owners
	o.Build(pool, ib.tables[0], ib.r.Keys, ib.bucket, ib.r.RIDs, ib.offsets)
	return &o
}

// insertOwned runs the same steps with the production kernels over one
// ownership layout for both steps and all shares. A nil order runs the
// shards concurrently on the pool, the way the runner does; otherwise one
// after another in that order.
func (ib *insertBuild) insertOwned(pool *sched.Pool, o *Owners, b3Shares, b4Shares []share, order []int) (b3, b4 [][]device.Acct) {
	each := func(sh share, fn func(t *Table, lo, hi int, la *alloc.Local) device.Acct) []device.Acct {
		from, to := o.Cut(sh.lo), o.Cut(sh.hi)
		run := func(s int) device.Acct {
			la := sh.t.arena.NewLocal()
			defer la.Close()
			return fn(sh.t, int(from[s]), int(to[s]), la)
		}
		if order == nil {
			return sched.Collect(pool, o.Shards(), run)
		}
		accts := make([]device.Acct, o.Shards())
		for _, s := range order {
			accts[s] = run(s)
		}
		return accts
	}
	for _, sh := range b3Shares {
		b3 = append(b3, each(sh, func(t *Table, lo, hi int, la *alloc.Local) device.Acct {
			return t.B3Shard(sh.d, o.Keys, o.Bucket, ib.node, lo, hi, la)
		}))
	}
	for _, sh := range b4Shares {
		b4 = append(b4, each(sh, func(t *Table, lo, hi int, la *alloc.Local) device.Acct {
			return t.B4Shard(sh.d, o.Bucket, o.RIDs, ib.node, lo, hi, la)
		}))
	}
	return b3, b4
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// requireSameTables checks two builds of the same tuples structurally: each
// table valid, with the bucket counts of the serial build, and the same key
// population, allocator totals and rid order for every 17th tuple's key as
// want.
func requireSameTables(t *testing.T, name string, got, want, serial *insertBuild) {
	t.Helper()
	for i := range got.tables {
		g, w := got.tables[i], want.tables[i]
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: table %d invalid: %v", name, i, err)
		}
		if !slices.Equal(g.Count, serial.tables[i].Count) {
			t.Fatalf("%s: table %d bucket counts differ from the serial build's", name, i)
		}
		if g.NumKeys() != w.NumKeys() || g.arena.Stats() != w.arena.Stats() {
			t.Fatalf("%s: table %d holds %d keys, allocator %+v; the reference %d, %+v", name, i, g.NumKeys(), g.arena.Stats(), w.NumKeys(), w.arena.Stats())
		}
		for j := 0; j < got.r.Len(); j += 17 {
			k := got.r.Keys[j]
			if a, b := g.Lookup(k), w.Lookup(k); !slices.Equal(a, b) {
				t.Fatalf("%s: table %d key %d rids %v, the reference's %v", name, i, k, a, b)
			}
		}
	}
}

// TestShardedBuildMatchesSerial holds the contiguous insert steps to the
// owner-index kernels they replaced, record by record: every (step, share,
// shard) device.Acct, the allocator totals and the rid order of every key
// must be equal — for SHJ, for PHJ over a partition-sorted build side with
// more partitions than shards (nothing is laid out) and with fewer (the
// scatter takes over), under Basic and Block allocation, with one shared
// table and with separate CPU and GPU tables, at cuts on and inside
// morsels, b2, b3 and b4 cut at different points as per-step PL ratios do.
// b2 only charges, so b4's shards count the buckets: every table must hold
// the bucket counts of the serial build split at b4's cut and pass
// Validate, separate tables whose b2 cut differs from b4's too. A shared
// SHJ table must also equal the serial build's.
func TestShardedBuildMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	n := sched.MorselItems + 3616
	base := rel.Gen{N: n, Seed: 7}.Build()
	inputs := map[string]rel.Relation{
		"distinct":  base,
		"high-skew": rel.Gen{N: n, Dist: rel.HighSkew, Seed: 8}.Probe(base, 1.0),
	}
	for iname, r := range inputs {
		serial := buildSerial(r)
		for _, bits := range []uint{0, 6, 3} {
			for _, cfg := range []alloc.Config{{Strategy: alloc.Basic}, {Strategy: alloc.Block}} {
				for _, separate := range []bool{false, true} {
					// b2, b3 and b4 cuts.
					cuts := [][3]int{{n, n, n}, {n / 3, n / 3, 2 * n / 3}, {n, 0, n / 2}, {0, sched.MorselItems + 77, 5000}}
					if separate {
						// A tuple's b3 and b4 must meet one table: DD cuts.
						cuts = [][3]int{{n / 3, n / 3, n / 3}, {n / 2, sched.MorselItems + 77, sched.MorselItems + 77}, {n, 0, 0}}
					}
					for _, cut := range cuts {
						name := fmt.Sprintf("%s bits=%d %v separate=%v cuts=%v", iname, bits, cfg.Strategy, separate, cut)
						ref := newInsertBuild(r, bits, separate, cfg)
						ref2 := ref.b2Records(pool, ref.shares(cut[0]), true)
						b3Shares, b4Shares := ref.shares(cut[1]), ref.shares(cut[2])
						ref3, ref4 := ref.insertIdx(b3Shares, b4Shares, ascending(ref.shards()))

						got := newInsertBuild(r, bits, separate, cfg)
						if got2 := got.b2Records(pool, got.shares(cut[0]), false); !slices.Equal(got2, ref2) {
							t.Fatalf("%s: b2 accts\n got %+v\nwant %+v", name, got2, ref2)
						}
						b3Shares, b4Shares = got.shares(cut[1]), got.shares(cut[2])
						o := got.owners(pool)
						got3, got4 := got.insertOwned(pool, o, b3Shares, b4Shares, nil)
						o.Release()
						for si := range b3Shares {
							if !slices.Equal(got3[si], ref3[si]) {
								t.Fatalf("%s: b3 share %d accts\n got %+v\nwant %+v", name, si, got3[si], ref3[si])
							}
							if !slices.Equal(got4[si], ref4[si]) {
								t.Fatalf("%s: b4 share %d accts\n got %+v\nwant %+v", name, si, got4[si], ref4[si])
							}
						}
						requireSameTables(t, name, got, ref, newSerialBuild(r, bits, separate, cfg, cut[2]))
						if bits > 0 || separate {
							continue
						}
						for _, k := range r.Keys[:200] {
							if a, b := serial.Lookup(k), got.tables[0].Lookup(k); !slices.Equal(a, b) {
								t.Fatalf("%s: key %d rids %v, the serial build's %v", name, k, b, a)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardedBuildAccountingDeterministic: per-tuple accounting must be a
// pure function of the shard decomposition, not of shard execution order.
// B3Shard and B4Shard run serially over one ownership layout with the
// shards in ascending and in reversed order; every (step, share, shard)
// record must be the same both ways, and equal to the owner-index
// reference's.
func TestShardedBuildAccountingDeterministic(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: 8192, Dist: dist, Seed: 9}.Probe(rel.Gen{N: 8192, Seed: 10}.Build(), 1.0)
		n := r.Len()
		for _, bits := range []uint{0, 6} {
			ref := newInsertBuild(r, bits, false, alloc.Config{})
			fwd := newInsertBuild(r, bits, false, alloc.Config{})
			rev := newInsertBuild(r, bits, false, alloc.Config{})
			order := ascending(ref.shards())
			want3, want4 := ref.insertIdx(ref.shares(n/4), ref.shares(n/2), order)
			fwd3, fwd4 := fwd.insertOwned(nil, fwd.owners(pool), fwd.shares(n/4), fwd.shares(n/2), order)
			slices.Reverse(order)
			rev3, rev4 := rev.insertOwned(nil, rev.owners(pool), rev.shares(n/4), rev.shares(n/2), order)

			for si := range want3 {
				if !slices.Equal(fwd3[si], rev3[si]) || !slices.Equal(fwd4[si], rev4[si]) {
					t.Fatalf("%v bits=%d share %d: accounting depends on shard execution order:\n b3 fwd %+v\n b3 rev %+v\n b4 fwd %+v\n b4 rev %+v",
						dist, bits, si, fwd3[si], rev3[si], fwd4[si], rev4[si])
				}
				if !slices.Equal(fwd3[si], want3[si]) || !slices.Equal(fwd4[si], want4[si]) {
					t.Fatalf("%v bits=%d share %d: contiguous kernels differ from the owner-index reference:\n b3 got %+v\n b3 want %+v\n b4 got %+v\n b4 want %+v",
						dist, bits, si, fwd3[si], want3[si], fwd4[si], want4[si])
				}
			}
		}
	}
}

// TestPooledB2ChargeMatchesAtomic holds the pooled b2, which only charges,
// to the kernel it replaced — an atomic count increment per tuple over
// range morsels: per device share, B2Charge must equal the MapRange-merged
// b2AtomicRef records, for SHJ and PHJ geometry, uniform and high-skew
// keys, and splits at both ends, at a third, inside a morsel and in the
// ragged last morsel.
func TestPooledB2ChargeMatchesAtomic(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	n := 3*sched.MorselItems + 3616
	base := rel.Gen{N: n, Seed: 11}.Build()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: n, Dist: dist, Seed: 12}.Probe(base, 1.0)
		for _, bits := range []uint{0, 6} {
			ib := newInsertBuild(r, bits, false, alloc.Config{})
			for _, cut := range []int{0, n, n / 3, sched.MorselItems + 77, n - 1000} {
				shares := ib.shares(cut)
				got, want := ib.b2Records(pool, shares, false), ib.b2Records(pool, shares, true)
				if len(got) == 0 || !slices.Equal(got, want) {
					t.Fatalf("%v bits=%d cut=%d: pooled b2 charges\n %+v\nthe atomic kernel\n %+v", dist, bits, cut, got, want)
				}
			}
		}
	}
}

// BenchmarkB3B4Shard measures the two insert steps of a 2^20-tuple SHJ
// build as the runner executes them — ownership shards on the pool, each
// reading its contiguous range of the owner-ordered columns, laid out
// outside the timer (BenchmarkOwnerScatter in internal/sched prices the
// layout) — beside the owner-index kernels they replaced, whose lists are
// also built outside the timer. The contiguous rows report their speed-up
// over the sparse row beside them as x-sparse.
func BenchmarkB3B4Shard(b *testing.B) {
	const n = 1 << 20
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		ib := newInsertBuild(rel.Gen{N: n, Dist: dist, Seed: 1}.Build(), 0, false, alloc.Config{})
		whole := ib.shares(n)[:1]
		idx := make([][]int32, ib.shards())
		for s := range idx {
			idx[s] = ownedIdx(ib.bucket, ib.shift, s, 0, n)
		}
		for _, workers := range []int{1, 2} {
			pool := sched.NewPool(workers)
			o := ib.owners(pool)
			var sparseNS float64
			run := func(name string, insert func()) {
				b.Run(fmt.Sprintf("%v/pool=%d/%s", dist, workers, name), func(b *testing.B) {
					t := ib.tables[0]
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						for j := range t.Head {
							t.Head[j] = nilRef
						}
						clear(t.Count)
						t.numKeys.Store(0)
						words := len(t.arena.Words())
						t.arena.Release()
						t.arena = alloc.New(alloc.Config{}, words)
						b.StartTimer()
						insert()
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/n, "ns/tuple")
					if name == "sparse" {
						sparseNS = ns
					} else if sparseNS > 0 {
						b.ReportMetric(sparseNS/ns, "x-sparse")
					}
				})
			}
			run("sparse", func() {
				t, d := ib.tables[0], whole[0].d
				for _, step := range []func(s int, la *alloc.Local) device.Acct{
					func(s int, la *alloc.Local) device.Acct {
						return t.b3ShardIdx(d, ib.r.Keys, ib.bucket, ib.node, idx[s], la)
					},
					func(s int, la *alloc.Local) device.Acct { return t.b4ShardIdx(ib.r.RIDs, ib.node, idx[s], la) },
				} {
					pool.MapShards(len(idx), func(s int) device.Acct {
						la := t.arena.NewLocal()
						defer la.Close()
						return step(s, la)
					})
				}
			})
			run("contiguous", func() { ib.insertOwned(pool, o, whole, whole, nil) })
			o.Release()
			pool.Close()
		}
	}
}

// BenchmarkP3P4 measures the probe's list-walk and emit steps over 2^20
// probe tuples (selectivity 1) of a 2^20-tuple build as the runner executes
// them: range morsels on the pool, p4 counting its pairs and, under
// materialize, charging each morsel's output as ChargeFresh does. p1 and p2
// run outside the timer. Each row is paired with an unaccounted row that
// runs p3Bare / p4Bare instead — the same walks without device.Acct,
// DivTracker and output charge — and reports how much of the accounted
// row's time the model took as acct-pct. Each p4 row must find the pairs a
// single-stream p4 finds, and each accounted p4 row's merged record must
// equal the single-stream p4's: at selectivity 1 every morsel's pairs fill
// whole 2 KB output blocks, so the morsels' charges add up to one arena's.
func BenchmarkP3P4(b *testing.B) {
	const n = 1 << 20
	cpu := device.New(device.APUCPU())
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: n, Dist: dist, Seed: 1}.Build()
		s := rel.Gen{N: n, Dist: dist, Seed: 2}.Probe(r, 1.0)
		t := buildSerial(r)
		bucket, head, node := make([]int32, n), make([]int32, n), make([]int32, n)
		t.P1(cpu, s.Keys, bucket, 0, n)
		t.P2(cpu, bucket, head, nil, 0, n)
		t.P3(cpu, s.Keys, head, node, 0, n, nil)

		for _, workers := range []int{1, 2} {
			pool := sched.NewPool(workers)
			var accountedNS float64
			// row times step over the probe; an unaccounted row follows its
			// accounted twin. check, when non-nil, verifies the last pass.
			row := func(name string, accounted bool, step func(), check func(b *testing.B)) {
				if !accounted {
					name += "/unaccounted"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						step()
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/n, "ns/tuple")
					if accounted {
						accountedNS = ns
					} else if accountedNS > 0 {
						b.ReportMetric(100*(accountedNS-ns)/accountedNS, "acct-pct")
					}
					if check != nil {
						check(b)
					}
				})
			}
			for _, accounted := range []bool{true, false} {
				row(fmt.Sprintf("P3/%v/pool=%d", dist, workers), accounted, func() {
					pool.MapRange(0, n, func(lo, hi int) device.Acct {
						if !accounted {
							t.p3Bare(s.Keys, head, node, lo, hi)
							return device.Acct{}
						}
						return t.P3(cpu, s.Keys, head, node, lo, hi, nil)
					})
				}, nil)
			}
			for _, materialize := range []bool{true, false} {
				name := "count-only"
				if materialize {
					name = "materialize"
				}
				serial := Out{Materialize: materialize}
				if materialize {
					serial.Arena = alloc.New(alloc.Config{}, 64)
				}
				want := t.P4(cpu, node, &serial, 0, n, nil)
				serial.Arena.Release()
				for _, accounted := range []bool{true, false} {
					var pairs atomic.Int64
					var got device.Acct
					row(fmt.Sprintf("P4/%s/%v/pool=%d", name, dist, workers), accounted, func() {
						pairs.Store(0)
						got = pool.MapRange(0, n, func(lo, hi int) device.Acct {
							priv := Out{Materialize: materialize}
							var a device.Acct
							if accounted {
								a = t.P4(cpu, node, &priv, lo, hi, nil)
								priv.ChargeFresh(&a, alloc.Config{})
							} else {
								t.p4Bare(node, &priv, lo, hi)
							}
							pairs.Add(priv.Pairs)
							return a
						})
					}, func(b *testing.B) {
						if pairs.Load() != serial.Pairs {
							b.Fatalf("%d pairs, single-stream p4 found %d", pairs.Load(), serial.Pairs)
						}
						if accounted && got != want {
							b.Fatalf("merged record\n %+v\nsingle-stream p4's\n %+v", got, want)
						}
					})
				}
			}
			pool.Close()
		}
	}
}
