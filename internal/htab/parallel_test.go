package htab

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// b3ShardScan and b4ShardScan are the scan-and-skip insert kernels that
// B3Shard/B4Shard's index walk replaced: every shard reads all of [lo,hi)
// and skips the tuples whose bucket it does not own, and b3 publishes each
// created key node with its own atomic add. They are kept as the reference
// decomposition — same tuples, same order, same allocator request sequence,
// so the same device.Acct per shard.
func (t *Table) b3ShardScan(d *device.Device, keys, bucket, node []int32, lo, hi int, shard int32, shift uint, la *alloc.Local) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()

	var processed int64
	for i := lo; i < hi; i++ {
		b := bucket[i]
		if b>>shift != shard {
			continue
		}
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
			t.numKeys.Add(1)
			a.Instr += instrCreateNode
			a.AtomicOps++
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
		processed++
	}

	a.Items = processed
	a.SeqBytes = processed * 12
	a.AtomicTargets = int64(t.nBuckets)
	st := la.Stats()
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	div.Flush(&a)
	return a
}

func (t *Table) b4ShardScan(rids, bucket, node []int32, lo, hi int, shard int32, shift uint, la *alloc.Local) device.Acct {
	var a device.Acct
	words := t.arena.Words()

	var processed int64
	for i := lo; i < hi; i++ {
		if bucket[i]>>shift != shard {
			continue
		}
		kn := node[i]
		rn := la.Alloc(ridNodeWords)
		words[rn+ridOffRID] = rids[i]
		words[rn+ridOffNext] = words[kn+keyOffRIDHead]
		words[kn+keyOffRIDHead] = rn
		processed++
	}

	a.Items = processed
	a.Instr = processed * instrInsertRID
	a.SeqBytes = processed * 8
	a.Rand[device.RegionHashTable] = processed * 2
	a.AtomicOps = processed
	a.AtomicTargets = max(t.numKeys.Load(), 1)
	st := la.Stats()
	a.AllocAtomics += st.GlobalAtomics
	a.LocalOps += st.LocalOps
	return a
}

// buildSerial runs the single-stream b1..b4 pipeline.
func buildSerial(r rel.Relation) *Table {
	n := r.Len()
	arena := alloc.New(alloc.Config{}, n*6+64)
	t := New(n, arena)
	cpu := device.New(device.APUCPU())
	bucket := make([]int32, n)
	head := make([]int32, n)
	node := make([]int32, n)
	t.B1(cpu, r.Keys, bucket, 0, n)
	t.B2(cpu, bucket, head, nil, 0, n)
	t.B3(cpu, r.Keys, bucket, node, 0, n, nil)
	t.B4(cpu, r.RIDs, node, 0, n)
	return t
}

// shardedBuild is a table after b1 and the atomic b2, ready for the
// ownership-shard insert steps, with the per-step intermediates.
type shardedBuild struct {
	t            *Table
	r            rel.Relation
	bucket, node []int32
	shards       int
	shift        uint
}

func newShardedBuild(r rel.Relation) *shardedBuild {
	n := r.Len()
	arena := alloc.New(alloc.Config{}, alloc.ParallelCapWords(alloc.Config{}, n*5+64, 3, 4*sched.DefaultShards))
	sb := &shardedBuild{t: New(n, arena), r: r, bucket: make([]int32, n), node: make([]int32, n)}
	cpu := device.New(device.APUCPU())
	sb.t.B1(cpu, r.Keys, sb.bucket, 0, n)
	sb.t.B2Atomic(cpu, sb.bucket, make([]int32, n), nil, 0, n)
	sb.shards = sb.t.shards(sched.DefaultShards)
	sb.shift = sb.t.shardShift(sb.shards)
	return sb
}

// share is one device's [lo,hi) slice of a step, as a PL ratio cuts it.
type share struct {
	d      *device.Device
	lo, hi int
}

// plShares splits [0,n) at cut into a CPU and a GPU share.
func plShares(cut, n int) []share {
	return []share{
		{device.New(device.APUCPU()), 0, cut},
		{device.New(device.APUGPU()), cut, n},
	}
}

// insertScan runs b3 over b3Shares then b4 over b4Shares with the reference
// scan kernels, serially in the given shard order, returning every (step,
// share, shard) accounting record.
func (sb *shardedBuild) insertScan(b3Shares, b4Shares []share, order []int) (b3, b4 [][]device.Acct) {
	for _, sh := range b3Shares {
		accts := make([]device.Acct, sb.shards)
		for _, s := range order {
			la := sb.t.arena.NewLocal()
			accts[s] = sb.t.b3ShardScan(sh.d, sb.r.Keys, sb.bucket, sb.node, sh.lo, sh.hi, int32(s), sb.shift, la)
			la.Close()
		}
		b3 = append(b3, accts)
	}
	for _, sh := range b4Shares {
		accts := make([]device.Acct, sb.shards)
		for _, s := range order {
			la := sb.t.arena.NewLocal()
			accts[s] = sb.t.b4ShardScan(sb.r.RIDs, sb.bucket, sb.node, sh.lo, sh.hi, int32(s), sb.shift, la)
			la.Close()
		}
		b4 = append(b4, accts)
	}
	return b3, b4
}

// owners builds the build's owner index over the bucket numbers.
func (sb *shardedBuild) owners(pool *sched.Pool) *sched.OwnerIndex {
	var owner sched.OwnerIndex
	sb.t.Owners(pool, sb.bucket, &owner)
	return &owner
}

// insertIndexed runs the same steps with the production kernels over one
// owner index for both steps and all shares. A nil order executes the shards
// concurrently on the pool, the way the runner does; otherwise they run one
// after another in that order.
func (sb *shardedBuild) insertIndexed(pool *sched.Pool, owner *sched.OwnerIndex, b3Shares, b4Shares []share, order []int) (b3, b4 [][]device.Acct) {
	each := func(fn func(s int) device.Acct) []device.Acct {
		if order == nil {
			return sched.Collect(pool, sb.shards, fn)
		}
		accts := make([]device.Acct, sb.shards)
		for _, s := range order {
			accts[s] = fn(s)
		}
		return accts
	}
	for _, sh := range b3Shares {
		b3 = append(b3, each(func(s int) device.Acct {
			la := sb.t.arena.NewLocal()
			defer la.Close()
			return sb.t.B3Shard(sh.d, sb.r.Keys, sb.bucket, sb.node, owner.Shard(s, sh.lo, sh.hi), la)
		}))
	}
	for _, sh := range b4Shares {
		b4 = append(b4, each(func(s int) device.Acct {
			la := sb.t.arena.NewLocal()
			defer la.Close()
			return sb.t.B4Shard(sh.d, sb.r.RIDs, sb.node, owner.Shard(s, sh.lo, sh.hi), la)
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

// TestShardedBuildMatchesSerial compares the sharded build against the
// serial one structurally — identical invariants, key population and rid
// order per key (the ownership design preserves per-bucket insertion
// order, so list shapes and walk costs match too) — and against the
// scan-and-skip reference record by record: every (step, share, shard)
// device.Acct of the indexed kernels must equal the reference's, also when
// b3 and b4 are cut at different points, as per-step PL ratios do.
func TestShardedBuildMatchesSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: sched.MorselItems + 3616, Dist: dist, Seed: 7}.Build()
		n := r.Len()
		serial := buildSerial(r)

		for _, cuts := range [][2]int{{n, n}, {n / 3, 2 * n / 3}, {0, n / 2}} {
			b3Shares, b4Shares := plShares(cuts[0], n), plShares(cuts[1], n)
			ref := newShardedBuild(r)
			ref3, ref4 := ref.insertScan(b3Shares, b4Shares, ascending(ref.shards))
			idx := newShardedBuild(r)
			got3, got4 := idx.insertIndexed(pool, idx.owners(pool), b3Shares, b4Shares, nil)

			for si := range b3Shares {
				for s := 0; s < ref.shards; s++ {
					if got3[si][s] != ref3[si][s] {
						t.Fatalf("%v cuts %v: b3 share %d shard %d acct\n got %+v\nwant %+v", dist, cuts, si, s, got3[si][s], ref3[si][s])
					}
					if got4[si][s] != ref4[si][s] {
						t.Fatalf("%v cuts %v: b4 share %d shard %d acct\n got %+v\nwant %+v", dist, cuts, si, s, got4[si][s], ref4[si][s])
					}
				}
			}

			sharded := idx.t
			if err := sharded.Validate(); err != nil {
				t.Fatalf("%v cuts %v: sharded table invalid: %v", dist, cuts, err)
			}
			if serial.NumKeys() != sharded.NumKeys() {
				t.Fatalf("%v cuts %v: keys %d vs %d", dist, cuts, serial.NumKeys(), sharded.NumKeys())
			}
			// Shares run in index order (CPU [0,cut) before GPU [cut,n)),
			// so a cut build still inserts every bucket's tuples in index
			// order and rid lists match the serial build's exactly.
			for _, k := range r.Keys[:200] {
				if a, b := serial.Lookup(k), sharded.Lookup(k); !slices.Equal(a, b) {
					t.Fatalf("%v cuts %v: key %d rids differ: %v vs %v", dist, cuts, k, a, b)
				}
			}
		}
	}
}

// TestShardedBuildAccountingDeterministic: per-tuple accounting must be a
// pure function of the shard decomposition, not of shard execution order.
// B3Shard and B4Shard run serially over one owner index with the shards in
// ascending and in reversed order; every (step, share, shard) record must be
// the same both ways, and equal to the scan-and-skip reference's.
func TestShardedBuildAccountingDeterministic(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		r := rel.Gen{N: 8192, Dist: dist, Seed: 9}.Build()
		n := r.Len()
		b3Shares, b4Shares := plShares(n/4, n), plShares(n/2, n)

		ref := newShardedBuild(r)
		fwd := newShardedBuild(r)
		rev := newShardedBuild(r)
		order := ascending(ref.shards)
		want3, want4 := ref.insertScan(b3Shares, b4Shares, order)
		fwd3, fwd4 := fwd.insertIndexed(nil, fwd.owners(pool), b3Shares, b4Shares, order)
		slices.Reverse(order)
		rev3, rev4 := rev.insertIndexed(nil, rev.owners(pool), b3Shares, b4Shares, order)

		for si := range b3Shares {
			if !slices.Equal(fwd3[si], rev3[si]) || !slices.Equal(fwd4[si], rev4[si]) {
				t.Fatalf("%v share %d: accounting depends on shard execution order:\n b3 fwd %+v\n b3 rev %+v\n b4 fwd %+v\n b4 rev %+v",
					dist, si, fwd3[si], rev3[si], fwd4[si], rev4[si])
			}
			if !slices.Equal(fwd3[si], want3[si]) || !slices.Equal(fwd4[si], want4[si]) {
				t.Fatalf("%v share %d: indexed kernels differ from the scan reference:\n b3 got %+v\n b3 want %+v\n b4 got %+v\n b4 want %+v",
					dist, si, fwd3[si], want3[si], fwd4[si], want4[si])
			}
		}
	}
}

// BenchmarkB3B4Shard measures the two insert steps of a 2^20-tuple build as
// the runner executes them: ownership shards on the pool walking one owner
// index, built outside the timer (BenchmarkOwnerIndex in internal/sched
// prices the build).
func BenchmarkB3B4Shard(b *testing.B) {
	const n = 1 << 20
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		sb := newShardedBuild(rel.Gen{N: n, Dist: dist, Seed: 1}.Build())
		whole := plShares(n, n)[:1]
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/pool=%d", dist, workers), func(b *testing.B) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				owner := sb.owners(pool)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := range sb.t.Head {
						sb.t.Head[j] = nilRef
					}
					sb.t.numKeys.Store(0)
					sb.t.arena.Reset()
					b.StartTimer()
					sb.insertIndexed(pool, owner, whole, whole, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			})
		}
	}
}

// BenchmarkP3P4 measures the probe's list-walk and emit steps over 2^20
// probe tuples (selectivity 1) of a 2^20-tuple build as the runner executes
// them: range morsels on the pool, p4 either materializing its pairs
// through a morsel-private output arena or counting them. p1 and p2 run
// outside the timer. Each p4 row must find the pairs a single-stream p4
// finds.
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
		var serial Out
		t.P4(cpu, s.RIDs, node, &serial, 0, n, nil)

		for _, workers := range []int{1, 2} {
			pool := sched.NewPool(workers)
			b.Run(fmt.Sprintf("P3/%v/pool=%d", dist, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pool.MapRange(0, n, func(lo, hi int) device.Acct {
						return t.P3(cpu, s.Keys, head, node, lo, hi, nil)
					})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			})
			for _, materialize := range []bool{true, false} {
				name := "count-only"
				if materialize {
					name = "materialize"
				}
				b.Run(fmt.Sprintf("P4/%s/%v/pool=%d", name, dist, workers), func(b *testing.B) {
					var pairs atomic.Int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						pairs.Store(0)
						pool.MapRange(0, n, func(lo, hi int) device.Acct {
							priv := Out{Materialize: materialize}
							if materialize {
								priv.Arena = alloc.New(alloc.Config{}, 4*(hi-lo)+64)
							}
							a := t.P4(cpu, s.RIDs, node, &priv, lo, hi, nil)
							pairs.Add(priv.Pairs)
							priv.Arena.Release()
							return a
						})
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
					if pairs.Load() != serial.Pairs {
						b.Fatalf("%d pairs, single-stream p4 found %d", pairs.Load(), serial.Pairs)
					}
				})
			}
			pool.Close()
		}
	}
}
