package htab

import (
	"fmt"
	"slices"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// p2Ref and p3Ref are the accounted p2 and p3 kernels from before Walk did
// the probe's host work in one pass and P2Charge and P3Charge charged it:
// p2 snapshots each tuple's key-list head into head[i] and its bucket's
// tuple count into work[i] (if non-nil); p3 walks the key list from head[i]
// for the tuple's key, storing the matching key node (or -1) into node[i].
// They are kept as the references the charges are held to.
func (t *Table) p2Ref(bucket []int32, head, work []int32, lo, hi int) device.Acct {
	var a device.Acct
	for i := lo; i < hi; i++ {
		b := bucket[i]
		head[i] = t.Head[b]
		if work != nil {
			work[i] = t.Count[b]
		}
	}
	n := int64(hi - lo)
	a.Items = n
	a.Instr = n * instrVisitHeader
	a.SeqBytes = n * 8
	a.Rand[device.RegionHashTable] = n
	return a
}

func (t *Table) p3Ref(d *device.Device, keys, head []int32, node []int32, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()

	run := func(i int) {
		key := keys[i]
		var visited int32 = 1
		kn := head[i]
		for kn != nilRef && words[kn+keyOffKey] != key {
			kn = words[kn+keyOffNext]
			visited++
		}
		node[i] = kn
		a.Instr += int64(visited) * instrListNode
		a.Rand[device.RegionHashTable] += int64(visited)
		div.Item(visited)
	}

	if order != nil {
		// order is the grouped permutation of exactly [lo,hi).
		for _, i := range order {
			run(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}

	n := int64(hi - lo)
	a.Items = n
	a.SeqBytes = n * 12
	div.Flush(&a)
	return a
}

// p4Ref and probeOneRef are p4 and ProbeOne as they were while they wrote
// the join output: every matching (buildRID, probeRID) pair of node[i]'s
// rid list is served by Alloc(2) from the output arena and written into it.
// They are kept as the reference the counting kernels are held to.
func (t *Table) p4Ref(d *device.Device, rids, node []int32, out *Out, lo, hi int, order []int32) device.Acct {
	var a device.Acct
	div := device.NewDivTracker(d.WavefrontSize)
	words := t.arena.Words()
	var before alloc.Stats
	if out.Materialize && out.Arena != nil {
		before = out.Arena.Stats()
	}

	run := func(i int) {
		kn := node[i]
		var matches int32
		if kn != nilRef {
			for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
				matches++
				a.Rand[device.RegionHashTable]++
				if out.Materialize && out.Arena != nil {
					off := out.Arena.Alloc(2)
					ow := out.Arena.Words()
					ow[off] = words[rn+ridOffRID]
					ow[off+1] = rids[i]
				}
			}
		}
		out.Pairs += int64(matches)
		a.Instr += int64(matches+1) * instrEmitMatch
		if out.Materialize {
			a.SeqBytes += int64(matches) * 8 // output pair write
		}
		div.Item(matches + 1)
	}

	if order != nil {
		for _, i := range order {
			run(int(i))
		}
	} else {
		for i := lo; i < hi; i++ {
			run(i)
		}
	}

	n := int64(hi - lo)
	a.Items = n
	a.SeqBytes += n * 8 // rid, node ref reads
	if out.Materialize && out.Arena != nil {
		allocDelta(&a, before, out.Arena.Stats())
	}
	div.Flush(&a)
	return a
}

func (t *Table) probeOneRef(key, srid int32, out *Out) device.Acct {
	var a device.Acct
	a.Items = 1
	a.Instr = hash.InstrPerHash + instrVisitHeader
	a.SeqBytes = 8
	words := t.arena.Words()
	b := t.bucketOf(key)
	a.Rand[device.RegionHashTable]++ // bucket header

	kn := t.Head[b]
	for kn != nilRef && words[kn+keyOffKey] != key {
		kn = words[kn+keyOffNext]
		a.Instr += instrListNode
		a.Rand[device.RegionHashTable]++
	}
	if kn == nilRef {
		return a
	}
	for rn := words[kn+keyOffRIDHead]; rn != nilRef; rn = words[rn+ridOffNext] {
		a.Rand[device.RegionHashTable]++
		a.Instr += instrEmitMatch
		if out.Materialize && out.Arena != nil {
			off := out.Arena.Alloc(2)
			ow := out.Arena.Words()
			ow[off] = words[rn+ridOffRID]
			ow[off+1] = srid
			a.SeqBytes += 8
		}
		out.Pairs++
	}
	return a
}

// probeFixture is a table over a build side with about three rids per key,
// and a probe side run through p1 and Walk, with Walk's work hints kept for
// grouped order, and through the reference p2 and p3 for p4Ref's nodes.
type probeFixture struct {
	t                      *Table
	s                      rel.Relation
	node, work, vis, match []int32
}

func newProbeFixture(n int, dist rel.Distribution, sel float64) *probeFixture {
	r := rel.Gen{N: n, KeyRange: n / 3, Seed: 21}.Build()
	s := rel.Gen{N: n, Dist: dist, Seed: 22}.Probe(r, sel)
	f := &probeFixture{t: buildSerial(r), s: s, node: make([]int32, n), work: make([]int32, n),
		vis: make([]int32, n), match: make([]int32, n)}
	cpu := device.New(device.APUCPU())
	bucket, head := make([]int32, n), make([]int32, n)
	f.t.P1(cpu, s.Keys, bucket, 0, n)
	f.t.p2Ref(bucket, head, nil, 0, n)
	f.t.p3Ref(cpu, s.Keys, head, f.node, 0, n, nil)
	f.t.Walk(s.Keys, bucket, f.work, f.vis, f.match, 0, n)
	return f
}

// outConfigs are the output allocators the counting kernels are checked
// under: Basic, and Block at the paper's 2 KB, at 6 words (three pairs a
// block, no tail) and at 5 words (two pairs and a wasted word a block).
var outConfigs = []alloc.Config{
	{Strategy: alloc.Basic},
	{Strategy: alloc.Block},
	{Strategy: alloc.Block, BlockBytes: 24},
	{Strategy: alloc.Block, BlockBytes: 20},
}

// requireSameOut checks two outputs' pairs and arena totals.
func requireSameOut(t *testing.T, name string, got, want *Out) {
	t.Helper()
	if got.Pairs != want.Pairs {
		t.Fatalf("%s: %d pairs, the reference %d", name, got.Pairs, want.Pairs)
	}
	if got.Arena == nil {
		return
	}
	if got.Arena.Stats() != want.Arena.Stats() || got.Arena.Used() != want.Arena.Used() {
		t.Fatalf("%s: output arena %+v, %d words; the reference %+v, %d", name,
			got.Arena.Stats(), got.Arena.Used(), want.Arena.Stats(), want.Arena.Used())
	}
}

// TestP4CountsLikeRef holds P4Charge, which counts Walk's matches and
// charges the output no kernel writes, to the writing kernel it replaced.
// Every
// record, the pairs and the output arena's Stats and Used must be equal:
// single-stream over a CPU and a GPU share, twice on one output arena so
// the block state carries across calls, in nil and grouped order; and on
// range morsels, where the reference writes into a fresh arena per morsel
// as the pooled p4 did and P4Charge charges ChargeFresh. Probes are uniform and
// high-skew at selectivity 0, 0.6 and 1, shares split at 0, n, n/3, inside
// a morsel and in the ragged last morsel, Materialize on and off, every
// outConfigs allocator.
func TestP4CountsLikeRef(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	n := 2*sched.MorselItems + 3616
	cpu, gpu := device.New(device.APUCPU()), device.New(device.APUGPU())
	type morsel struct {
		a     device.Acct
		pairs int64
		st    alloc.Stats
	}
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		for _, sel := range []float64{0, 0.6, 1} {
			f := newProbeFixture(n, dist, sel)
			for _, cut := range []int{0, n, n / 3, sched.MorselItems + 77, n - 1000} {
				shares := []share{{cpu, f.t, 0, cut}, {gpu, f.t, cut, n}}
				for _, cfg := range outConfigs {
					for _, materialize := range []bool{true, false} {
						name := fmt.Sprintf("%v sel=%v cut=%d %+v materialize=%v", dist, sel, cut, cfg, materialize)
						for _, grouped := range []bool{false, true} {
							got := Out{Arena: alloc.New(cfg, 64), Materialize: materialize}
							want := Out{Arena: alloc.New(cfg, 64), Materialize: materialize}
							for range 2 {
								for _, sh := range shares {
									var order []int32
									if grouped && sh.d.WavefrontSize > 1 && sh.hi-sh.lo > 1 {
										order = sched.GroupOrder(f.work, sh.lo, sh.hi, 16)
									}
									g := f.t.P4Charge(sh.d, f.match, &got, sh.lo, sh.hi, order)
									w := f.t.p4Ref(sh.d, f.s.RIDs, f.node, &want, sh.lo, sh.hi, order)
									alloc.PutWords(order)
									if g != w {
										t.Fatalf("%s grouped=%v share [%d,%d): acct\n got %+v\nwant %+v", name, grouped, sh.lo, sh.hi, g, w)
									}
								}
							}
							requireSameOut(t, fmt.Sprintf("%s grouped=%v", name, grouped), &got, &want)
						}
						for _, sh := range shares {
							gotM := sched.CollectRange(pool, sh.lo, sh.hi, func(lo, hi int) morsel {
								o := Out{Materialize: materialize}
								a := f.t.P4Charge(sh.d, f.match, &o, lo, hi, nil)
								return morsel{a, o.Pairs, o.ChargeFresh(&a, cfg)}
							})
							wantM := sched.CollectRange(pool, sh.lo, sh.hi, func(lo, hi int) morsel {
								o := Out{Materialize: materialize}
								if materialize {
									o.Arena = alloc.New(cfg, 4*(hi-lo)+64)
									defer o.Arena.Release()
								}
								a := f.t.p4Ref(sh.d, f.s.RIDs, f.node, &o, lo, hi, nil)
								var st alloc.Stats
								if o.Arena != nil {
									st = o.Arena.Stats()
								}
								return morsel{a, o.Pairs, st}
							})
							if !slices.Equal(gotM, wantM) {
								t.Fatalf("%s share [%d,%d): morsels\n got %+v\nwant %+v", name, sh.lo, sh.hi, gotM, wantM)
							}
						}
					}
				}
			}
		}
	}
}

// TestProbeOneCountsLikeRef holds ProbeOne, the fused probe of the coarse
// pair joins, to the writing probe it replaced: equal records call by call
// and equal pairs and output arena totals after the whole probe side, over
// one arena, for the selectivities and allocators of TestP4CountsLikeRef.
func TestProbeOneCountsLikeRef(t *testing.T) {
	const n = 6000
	for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
		for _, sel := range []float64{0, 0.6, 1} {
			f := newProbeFixture(n, dist, sel)
			for _, cfg := range outConfigs {
				for _, materialize := range []bool{true, false} {
					name := fmt.Sprintf("%v sel=%v %+v materialize=%v", dist, sel, cfg, materialize)
					got := Out{Arena: alloc.New(cfg, 64), Materialize: materialize}
					want := Out{Arena: alloc.New(cfg, 64), Materialize: materialize}
					for i, key := range f.s.Keys {
						if g, w := f.t.ProbeOne(key, &got), f.t.probeOneRef(key, f.s.RIDs[i], &want); g != w {
							t.Fatalf("%s tuple %d: acct\n got %+v\nwant %+v", name, i, g, w)
						}
					}
					requireSameOut(t, name, &got, &want)
				}
			}
		}
	}
}
