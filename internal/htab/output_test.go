package htab

import (
	"fmt"
	"slices"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// probeFixture is a table over a build side with about three rids per key,
// and a probe side run through p1 and Walk, with Walk's work hints kept for
// grouped order, and through the reference p2 and p3 on the linked table
// of the same build side for p4Ref's nodes.
type probeFixture struct {
	t, linked                    *Table
	s                            rel.Relation
	node, work, vis, match, rids []int32
}

func newProbeFixture(n int, dist rel.Distribution, sel float64) *probeFixture {
	r := rel.Gen{N: n, KeyRange: n / 3, Seed: 21}.Build()
	s := rel.Gen{N: n, Dist: dist, Seed: 22}.Probe(r, sel)
	f := &probeFixture{t: buildSerial(r), linked: buildLinked(r), s: s, node: make([]int32, n), work: make([]int32, n),
		vis: make([]int32, n), match: make([]int32, n), rids: denseRIDs(n)}
	cpu := device.New(device.APUCPU())
	bucket, head := make([]int32, n), make([]int32, n)
	f.t.B1(cpu, s.Keys, bucket, 0, n)
	f.linked.p2Ref(bucket, head, nil, 0, n)
	f.linked.p3Ref(cpu, s.Keys, head, f.node, 0, n, nil)
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
									w := f.linked.p4Ref(sh.d, f.rids, f.node, &want, sh.lo, sh.hi, order)
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
								a := f.linked.p4Ref(sh.d, f.rids, f.node, &o, lo, hi, nil)
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
						if g, w := f.t.ProbeOne(key, &got), f.linked.probeOneRef(key, f.rids[i], &want); g != w {
							t.Fatalf("%s tuple %d: acct\n got %+v\nwant %+v", name, i, g, w)
						}
					}
					requireSameOut(t, name, &got, &want)
				}
			}
		}
	}
}
