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

// b2AtomicRef is the pooled b2 before it only charged: B2 with a sync/atomic
// increment of the bucket count, run over concurrent range morsels. It is
// kept as the reference B2Charge's records are held to, and it counts the
// buckets of a linked table built on a pool.
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

// ownedIdx is the owner index the reference kernels walk on a pool: per
// shard, the tuples of [lo,hi) whose bucket it owns, ascending.
func ownedIdx(bucket []int32, shift uint, shards, lo, hi int) [][]int32 {
	out := make([][]int32, shards)
	for i := lo; i < hi; i++ {
		k := bucket[i] >> shift
		out[k] = append(out[k], int32(i))
	}
	return out
}

// buildSerial runs the single-stream b1..b4 pipeline into a flat table.
func buildSerial(r rel.Relation) *Table {
	ib := newInsertBuild(sideOf(r, 0), false, false, alloc.Config{})
	ib.serial(ib.r.Len(), ib.r.Len(), false)
	return ib.tables[0]
}

// buildLinked is buildSerial on the paper's linked table, the references'.
func buildLinked(r rel.Relation) *Table {
	ib := newInsertBuild(sideOf(r, 0), false, true, alloc.Config{})
	ib.serial(ib.r.Len(), ib.r.Len(), false)
	return ib.tables[0]
}

// insertBuild is a build after b1, ready for b2..b4 as the runner executes
// them, single-stream or on a pool, with the production kernels on lean
// tables or the reference kernels on linked ones: a CPU and a GPU table —
// one table twice unless the build keeps separate tables — and b1's bucket
// numbers. A PHJ build side is sorted by a radix partition first, as the
// partition phase leaves it, and offsets holds its partition boundaries.
type insertBuild struct {
	tables  [2]*Table
	linked  bool
	r       rel.Relation
	bucket  []int32
	work    []int32 // b2's hints on a single stream
	node    []int32 // a linked build's b3 → b4 column
	rids    []int32 // the dense rids a linked build's b4 links
	offsets []int32
	shift   uint
	// vis and fresh are a lean build's b3 columns, at tuple indices on a
	// single stream, at owner-ordered positions on a pool.
	vis, fresh []int32
}

// buildSide is a build side ready for b1: r, sorted by its radix partition
// over the low bits hash bits when bits > 0, as the partition phase leaves
// a PHJ build side, with each tuple's partition and the boundaries.
type buildSide struct {
	r       rel.Relation
	bits    uint
	offsets []int32
}

func sideOf(r rel.Relation, bits uint) buildSide {
	if bits == 0 {
		return buildSide{r: r}
	}
	r, offsets := byPartition(r, bits)
	return buildSide{r, bits, offsets}
}

// newInsertBuild prepares a build over side with the given allocator: SHJ
// when side.bits is 0, else PHJ over 1<<bits partitions; linked for the
// references.
func newInsertBuild(side buildSide, separate, linked bool, cfg alloc.Config) *insertBuild {
	r, bits := side.r, side.bits
	n := r.Len()
	ib := &insertBuild{r: r, linked: linked, bucket: make([]int32, n), work: make([]int32, n), offsets: side.offsets}
	if linked {
		ib.node, ib.rids = make([]int32, n), denseRIDs(n)
	} else {
		ib.vis, ib.fresh = make([]int32, n), make([]int32, n)
	}
	newTable := func() *Table {
		// A linked table's nodes are allocated for real, and on a pool
		// from Locals, which never grow the arena.
		arena, nodes := alloc.New(cfg, alloc.ParallelCapWords(cfg, n*5+64, 3, 4*sched.DefaultShards)), 0
		if !linked {
			arena, nodes = alloc.New(cfg, 0), n
		}
		if bits > 0 {
			return NewSeg(1<<bits, max(n>>bits, 1), nodes, 0, bits, arena)
		}
		return New(n, nodes, arena)
	}
	ib.tables[0] = newTable()
	ib.tables[1] = ib.tables[0]
	if separate {
		ib.tables[1] = newTable()
	}
	cpu := device.New(device.APUCPU())
	t := ib.tables[0]
	if bits > 0 {
		t.B1Seg(cpu, r.Keys, ib.bucket, 0, n)
	} else {
		t.B1(cpu, r.Keys, ib.bucket, 0, n)
	}
	_, ib.shift = sched.OwnerShards(t.nBuckets)
	return ib
}

// byPartition returns r stably sorted by its radix partition over the low
// bits of the key hash, with the partition boundaries.
func byPartition(r rel.Relation, bits uint) (rel.Relation, []int32) {
	n := r.Len()
	parts := 1 << bits
	offsets := make([]int32, parts+1)
	for _, k := range r.Keys {
		offsets[hash.RadixPass(uint32(k), 0, bits)+1]++
	}
	for p := 0; p < parts; p++ {
		offsets[p+1] += offsets[p]
	}
	out := rel.Relation{Keys: make([]int32, n)}
	at := slices.Clone(offsets)
	for _, k := range r.Keys {
		p := hash.RadixPass(uint32(k), 0, bits)
		out.Keys[at[p]] = k
		at[p]++
	}
	return out, offsets
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

// serial runs b2..b4 single-stream, b2 and b3 cut at cut3 and b4 at cut4
// between the CPU and the GPU share, the GPU share of b3 in grouped order
// when grouped, as the runner's grouped build does. It returns the records
// of b3's and b4's shares.
func (ib *insertBuild) serial(cut3, cut4 int, grouped bool) (b3, b4 []device.Acct) {
	for _, sh := range ib.shares(cut3) {
		sh.t.B2(sh.d, ib.bucket, ib.work, sh.lo, sh.hi)
	}
	for _, sh := range ib.shares(cut3) {
		var order []int32
		if grouped && sh.d.WavefrontSize > 1 && sh.hi-sh.lo > 1 {
			order = sched.GroupOrder(ib.work, sh.lo, sh.hi, 16)
		}
		if ib.linked {
			b3 = append(b3, sh.t.b3Ref(sh.d, ib.r.Keys, ib.bucket, ib.node, sh.lo, sh.hi, order, sh.t.arena))
		} else {
			b3 = append(b3, sh.t.B3(sh.d, ib.r.Keys, ib.bucket, ib.vis, ib.fresh, sh.lo, sh.hi, order))
		}
		alloc.PutWords(order)
	}
	for _, sh := range ib.shares(cut4) {
		if ib.linked {
			b4 = append(b4, sh.t.b4Ref(ib.rids, ib.node, sh.lo, sh.hi, nil, sh.t.arena))
		} else {
			b4 = append(b4, sh.t.B4Charge(sh.lo, sh.hi, false))
		}
	}
	return b3, b4
}

// pooled runs b2..b4 as a pool runs them, cuts as for serial, and returns
// every (step, share, shard) record: a linked build counts the buckets with
// b2AtomicRef and walks each shard's owner index over the build's own
// columns through a Local per (step, share, shard), the shards in order; a
// lean build only charges b2, lays out its Owners and runs B3Shard on the
// pool and B4Charge per shard.
func (ib *insertBuild) pooled(pool *sched.Pool, cut3, cut4 int, order []int) (b3, b4 [][]device.Acct) {
	if ib.linked {
		for _, sh := range ib.shares(cut3) {
			pool.MapRange(sh.lo, sh.hi, func(lo, hi int) device.Acct {
				return sh.t.b2AtomicRef(sh.d, ib.bucket, nil, lo, hi)
			})
		}
		each := func(cut int, fn func(sh share, idx []int32, la *alloc.Local) device.Acct) (out [][]device.Acct) {
			for _, sh := range ib.shares(cut) {
				accts := make([]device.Acct, ib.shards())
				idx := ownedIdx(ib.bucket, ib.shift, ib.shards(), sh.lo, sh.hi)
				for _, k := range order {
					la := sh.t.arena.NewLocal()
					accts[k] = fn(sh, idx[k], la)
					la.Close()
				}
				out = append(out, accts)
			}
			return out
		}
		b3 = each(cut3, func(sh share, idx []int32, la *alloc.Local) device.Acct {
			return sh.t.b3Ref(sh.d, ib.r.Keys, ib.bucket, ib.node, 0, 0, idx, la)
		})
		b4 = each(cut4, func(sh share, idx []int32, la *alloc.Local) device.Acct {
			return sh.t.b4Ref(ib.rids, ib.node, 0, 0, idx, la)
		})
		return b3, b4
	}
	var o Owners
	defer o.Release()
	o.Build(pool, ib.tables[0], ib.r.Keys, ib.bucket, ib.offsets)
	each := func(cut int, fn func(sh share, lo, hi int) device.Acct) (out [][]device.Acct) {
		for _, sh := range ib.shares(cut) {
			from, to := o.Cut(sh.lo), o.Cut(sh.hi)
			run := func(k int) device.Acct { return fn(sh, int(from[k]), int(to[k])) }
			if order == nil {
				out = append(out, sched.Collect(pool, o.Shards(), run))
				continue
			}
			accts := make([]device.Acct, o.Shards())
			for _, k := range order {
				accts[k] = run(k)
			}
			out = append(out, accts)
		}
		return out
	}
	b3 = each(cut3, func(sh share, lo, hi int) device.Acct {
		return sh.t.B3Shard(sh.d, o.Keys, o.Bucket, ib.vis, ib.fresh, lo, hi)
	})
	b4 = each(cut4, func(sh share, lo, hi int) device.Acct { return sh.t.B4Charge(lo, hi, true) })
	return b3, b4
}

// merge merges a separate GPU table into the CPU table, as the runner does
// after the build, and returns the merge's record.
func (ib *insertBuild) merge() device.Acct {
	if ib.linked {
		return ib.tables[0].mergeRef(ib.tables[1])
	}
	return ib.tables[0].Merge(ib.tables[1])
}

// release hands the build's tables, and a linked build's arenas, back to
// the recycler.
func (ib *insertBuild) release() {
	for i, t := range ib.tables {
		if i > 0 && t == ib.tables[0] {
			break
		}
		t.Release()
		if ib.linked {
			t.arena.Release()
		}
	}
}

// sameAs checks a lean build's tables against a linked build's of the same
// tuples: each lean table valid, with the same bucket counts, key lists and
// rid counts, distinct keys, allocator totals and modelled working set.
func (ib *insertBuild) sameAs(ref *insertBuild) error {
	for i, g := range ib.tables {
		if i > 0 && g == ib.tables[0] {
			break // one table twice
		}
		w := ref.tables[i]
		if err := g.Validate(); err != nil {
			return fmt.Errorf("table %d invalid: %v", i, err)
		}
		if !slices.Equal(g.Count, w.Count) {
			return fmt.Errorf("table %d bucket counts differ from the reference's", i)
		}
		if err := sameKeyLists(g, w); err != nil {
			return fmt.Errorf("table %d: %v", i, err)
		}
		if g.NumKeys() != w.NumKeys() || g.arena.Stats() != w.arena.Stats() || g.arena.Used() != w.arena.Used() || g.BytesResident() != w.BytesResident() {
			return fmt.Errorf("table %d holds %d keys, allocator %+v, %d words, %d B resident; the reference %d, %+v, %d, %d",
				i, g.NumKeys(), g.arena.Stats(), g.arena.Used(), g.BytesResident(), w.NumKeys(), w.arena.Stats(), w.arena.Used(), w.BytesResident())
		}
	}
	return nil
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestShardedBuildAccountingDeterministic: per-tuple accounting must be a
// pure function of the shard decomposition, not of shard execution order.
// B3Shard and B4Charge run serially over one ownership layout with the
// shards in ascending and in reversed order; every (step, share, shard)
// record must be the same both ways, and equal to the owner-index
// reference's on the linked table.
func TestShardedBuildAccountingDeterministic(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: 8192, Dist: dist, Seed: 9}.Probe(rel.Gen{N: 8192, Seed: 10}.Build(), 1.0)
		n := r.Len()
		for _, bits := range []uint{0, 6} {
			ref := newInsertBuild(sideOf(r, bits), false, true, alloc.Config{})
			fwd := newInsertBuild(sideOf(r, bits), false, false, alloc.Config{})
			rev := newInsertBuild(sideOf(r, bits), false, false, alloc.Config{})
			order := ascending(ref.shards())
			want3, want4 := ref.pooled(pool, n/4, n/2, order)
			fwd3, fwd4 := fwd.pooled(pool, n/4, n/2, order)
			slices.Reverse(order)
			rev3, rev4 := rev.pooled(pool, n/4, n/2, order)

			for si := range want3 {
				if !slices.Equal(fwd3[si], rev3[si]) || !slices.Equal(fwd4[si], rev4[si]) {
					t.Fatalf("%v bits=%d share %d: accounting depends on shard execution order:\n b3 fwd %+v\n b3 rev %+v\n b4 fwd %+v\n b4 rev %+v",
						dist, bits, si, fwd3[si], rev3[si], fwd4[si], rev4[si])
				}
				if !slices.Equal(fwd3[si], want3[si]) || !slices.Equal(fwd4[si], want4[si]) {
					t.Fatalf("%v bits=%d share %d: the lean kernels differ from the owner-index reference:\n b3 got %+v\n b3 want %+v\n b4 got %+v\n b4 want %+v",
						dist, bits, si, fwd3[si], want3[si], fwd4[si], want4[si])
				}
			}
			for _, ib := range []*insertBuild{fwd, rev} {
				if err := ib.sameAs(ref); err != nil {
					t.Fatalf("%v bits=%d: %v", dist, bits, err)
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
			ib := newInsertBuild(sideOf(r, bits), false, false, alloc.Config{})
			for _, cut := range []int{0, n, n / 3, sched.MorselItems + 77, n - 1000} {
				var got, want []device.Acct
				for _, sh := range ib.shares(cut) {
					if sh.lo == sh.hi {
						continue // the executor dispatches no empty share
					}
					got = append(got, sh.t.B2Charge(sh.lo, sh.hi))
					want = append(want, pool.MapRange(sh.lo, sh.hi, func(lo, hi int) device.Acct {
						return sh.t.b2AtomicRef(sh.d, ib.bucket, nil, lo, hi)
					}))
				}
				if len(got) == 0 || !slices.Equal(got, want) {
					t.Fatalf("%v bits=%d cut=%d: pooled b2 charges\n %+v\nthe atomic kernel\n %+v", dist, bits, cut, got, want)
				}
			}
		}
	}
}

// BenchmarkB3B4Shard measures the build's insert steps as a pool executes
// them — ownership shards, each over its contiguous range of the
// owner-ordered columns, laid out outside the timer (BenchmarkOwnerScatter
// in internal/sched prices the layout) — at 2^14 and 2^20 tuples (a
// spilled partition's size and the benchmark's relation size), uniform and
// high-skew, on pools of 1 and 2: the lean row is b3's one host pass
// (B3Shard) plus b4's charge per shard, the linked row the paper's linked
// table built by the reference kernels — key nodes, rid nodes linked
// through a Local per shard and step — as the host built it before. The
// lean row reports its speed-up over the linked one as x-linked. Both
// rows' records must be equal per shard, and the tables' bucket counts,
// key lists, rid counts and allocator totals too.
func BenchmarkB3B4Shard(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 20} {
		for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
			r := rel.Gen{N: n, Dist: dist, Seed: 1}.Build()
			for _, workers := range []int{1, 2} {
				pool := sched.NewPool(workers)
				lean := newInsertBuild(sideOf(r, 0), false, false, alloc.Config{})
				ref := newInsertBuild(sideOf(r, 0), false, true, alloc.Config{})
				cpu := device.New(device.APUCPU())
				var o Owners
				o.Build(pool, lean.tables[0], lean.r.Keys, lean.bucket, nil)
				oRIDs := make([]int32, n) // the rids b4 links, owner-ordered
				from, to := o.Cut(0), o.Cut(n)
				reset := func(t *Table, linked bool) {
					for j := range t.Head {
						t.Head[j] = nilRef
					}
					clear(t.Count)
					t.numKeys.Store(0)
					words := 0
					if linked {
						words = len(t.arena.Words())
						t.arena.Release()
					}
					t.arena = alloc.New(alloc.Config{}, words)
				}
				var got3, got4 device.Acct
				rows := []struct {
					name   string
					t      *Table
					linked bool
					insert func(t *Table)
				}{
					{"linked", ref.tables[0], true, func(t *Table) {
						got3 = pool.MapShards(o.Shards(), func(k int) device.Acct {
							la := t.arena.NewLocal()
							defer la.Close()
							for _, bk := range o.Bucket[from[k]:to[k]] {
								t.Count[bk]++
							}
							return t.b3Ref(cpu, o.Keys, o.Bucket, ref.node, int(from[k]), int(to[k]), nil, la)
						})
						got4 = pool.MapShards(o.Shards(), func(k int) device.Acct {
							la := t.arena.NewLocal()
							defer la.Close()
							return t.b4Ref(oRIDs, ref.node, int(from[k]), int(to[k]), nil, la)
						})
					}},
					{"lean", lean.tables[0], false, func(t *Table) {
						got3 = pool.MapShards(o.Shards(), func(k int) device.Acct {
							return t.B3Shard(cpu, o.Keys, o.Bucket, lean.vis, lean.fresh, int(from[k]), int(to[k]))
						})
						var shards [sched.DefaultShards]device.Acct
						for k := range o.Shards() {
							shards[k] = t.B4Charge(int(from[k]), int(to[k]), true)
						}
						got4 = sched.MergeAccts(shards[:o.Shards()])
					}},
				}
				// The linked build, once outside the timers, is the one every
				// row is checked against.
				rows[0].insert(ref.tables[0])
				want3, want4 := got3, got4
				var linkedNS float64
				for _, row := range rows {
					b.Run(fmt.Sprintf("n=%d/%v/pool=%d/%s", n, dist, workers, row.name), func(b *testing.B) {
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							reset(row.t, row.linked)
							b.StartTimer()
							row.insert(row.t)
						}
						ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
						b.ReportMetric(ns/float64(n), "ns/tuple")
						if row.linked {
							linkedNS = ns
						} else if linkedNS > 0 {
							b.ReportMetric(linkedNS/ns, "x-linked")
						}
						if got3 != want3 || got4 != want4 {
							b.Fatalf("records\n %+v\n %+v\nthe linked kernels'\n %+v\n %+v", got3, got4, want3, want4)
						}
						if err := lean.sameAs(ref); !row.linked && err != nil {
							b.Fatal(err)
						}
					})
				}
				o.Release()
				pool.Close()
			}
		}
	}
}

// BenchmarkP3P4 measures the probe's host work over 2^20 probe tuples
// (selectivity 1) of a 2^20-tuple build as the runner executes it, on range
// morsels of the pool: Walk, p2's one pass over the table, on its key lists
// and on the sealed layout (which reports its speed-up over the key lists
// as x-linked), then the charge pass — P3Charge and P4Charge, the latter
// counting each morsel's pairs and, under materialize, charging its output
// as ChargeFresh does. p1 runs outside the timer. The sealed walk must write
// the linked walk's columns, every row must find the pairs the reference
// p4 finds, and the charge rows' merged records must equal the single-stream
// reference kernels' on the paper's linked table: at selectivity 1 every morsel's pairs fill whole 2 KB
// output blocks, so the morsels' charges add up to one arena's.
func BenchmarkP3P4(b *testing.B) {
	const n = 1 << 20
	cpu, gpu := device.New(device.APUCPU()), device.New(device.APUGPU())
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: n, Dist: dist, Seed: 1}.Build()
		s := rel.Gen{N: n, Dist: dist, Seed: 2}.Probe(r, 1.0)
		linked, sealed, ref := buildSerial(r), buildSerial(r), buildLinked(r)
		sealed.Seal(nil)
		bucket, head, node := make([]int32, n), make([]int32, n), make([]int32, n)
		linked.P1(cpu, s.Keys, bucket, 0, n)
		ref.p2Ref(bucket, head, nil, 0, n)
		// One charge row per device and output mode, with the reference
		// kernels' single-stream records.
		type charge struct {
			name         string
			d            *device.Device
			materialize  bool
			want3, want4 device.Acct
		}
		var charges []charge
		var wantPairs int64
		for _, d := range []*device.Device{cpu, gpu} {
			want3 := ref.p3Ref(d, s.Keys, head, node, 0, n, nil)
			for _, materialize := range []bool{true, false} {
				serial := Out{Materialize: materialize, Arena: alloc.New(alloc.Config{}, 64)}
				want4 := ref.p4Ref(d, denseRIDs(n), node, &serial, 0, n, nil)
				serial.Arena.Release()
				wantPairs = serial.Pairs
				name := map[bool]string{true: "materialize", false: "count-only"}[materialize]
				dev := map[bool]string{true: "gpu", false: "cpu"}[d == gpu]
				charges = append(charges, charge{"charge/" + name + "/" + dev, d, materialize, want3, want4})
			}
		}
		wantVis, wantMatch := make([]int32, n), make([]int32, n)
		linked.Walk(s.Keys, bucket, nil, wantVis, wantMatch, 0, n)

		for _, workers := range []int{1, 2} {
			pool := sched.NewPool(workers)
			vis, match := make([]int32, n), make([]int32, n)
			var linkedNS float64
			row := func(name string, step func(), check func(b *testing.B)) {
				b.Run(fmt.Sprintf("%s/%v/pool=%d", name, dist, workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						step()
					}
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/n, "ns/tuple")
					switch {
					case name == "walk-linked":
						linkedNS = ns
					case name == "walk-sealed" && linkedNS > 0:
						b.ReportMetric(linkedNS/ns, "x-linked")
					}
					check(b)
				})
			}
			for _, tb := range []struct {
				name string
				t    *Table
			}{{"walk-linked", linked}, {"walk-sealed", sealed}} {
				row(tb.name, func() {
					clear(vis)
					pool.MapRange(0, n, func(lo, hi int) device.Acct {
						tb.t.Walk(s.Keys, bucket, nil, vis, match, lo, hi)
						return device.Acct{}
					})
				}, func(b *testing.B) {
					if !slices.Equal(vis, wantVis) || !slices.Equal(match, wantMatch) {
						b.Fatal("the walk's columns differ from the single-stream linked walk's")
					}
				})
			}
			for _, k := range charges {
				var pairs atomic.Int64
				var got3, got4 device.Acct
				row(k.name, func() {
					pairs.Store(0)
					got3 = pool.MapRange(0, n, func(lo, hi int) device.Acct {
						return sealed.P3Charge(k.d, wantVis, lo, hi, nil)
					})
					got4 = pool.MapRange(0, n, func(lo, hi int) device.Acct {
						priv := Out{Materialize: k.materialize}
						a := sealed.P4Charge(k.d, wantMatch, &priv, lo, hi, nil)
						priv.ChargeFresh(&a, alloc.Config{})
						pairs.Add(priv.Pairs)
						return a
					})
				}, func(b *testing.B) {
					if pairs.Load() != wantPairs {
						b.Fatalf("%d pairs, the reference p4 found %d", pairs.Load(), wantPairs)
					}
					if got3 != k.want3 || got4 != k.want4 {
						b.Fatalf("merged records\n %+v\n %+v\nthe reference kernels'\n %+v\n %+v", got3, got4, k.want3, k.want4)
					}
				})
			}
			pool.Close()
		}
	}
}
