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

// walkCase is one probe of the differential tests: a build side, the
// geometry of its table and a probe side, with the probe's bucket numbers
// on that geometry.
type walkCase struct {
	name   string
	r, s   rel.Relation
	bits   uint // radix bits of a segmented table; 0 for a flat one
	groups int  // buckets of a flat table; 0 for one per build tuple
	bucket []int32
}

// table builds the case's table single-stream, its CPU share [0,cut) into
// the first table and the rest into a second one merged into the first
// when cut < |R|, as separate tables are: a lean table, or with linked the
// paper's linked one through the reference kernels.
func (c *walkCase) table(cut int, linked bool) *Table {
	n := c.r.Len()
	newTable := func() *Table {
		arena, nodes := alloc.New(alloc.Config{}, n*6+64), 0
		if !linked {
			arena, nodes = alloc.New(alloc.Config{}, 0), n
		}
		switch {
		case c.bits > 0:
			return NewSeg(1<<c.bits, max(n>>c.bits, 1), nodes, 0, c.bits, arena)
		case c.groups > 0:
			return New(c.groups, nodes, arena)
		}
		return New(n, nodes, arena)
	}
	bucket, col1, col2 := make([]int32, n), make([]int32, n), make([]int32, n)
	t, other := newTable(), newTable()
	cpu := device.New(device.APUCPU())
	if c.bits > 0 {
		t.B1Seg(cpu, c.r.Keys, bucket, 0, n)
	} else {
		t.B1(cpu, c.r.Keys, bucket, 0, n)
	}
	for _, sh := range []struct {
		t      *Table
		lo, hi int
	}{{t, 0, cut}, {other, cut, n}} {
		sh.t.B2(cpu, bucket, nil, sh.lo, sh.hi)
		if linked {
			sh.t.b3Ref(cpu, c.r.Keys, bucket, col1, sh.lo, sh.hi, nil, sh.t.arena)
			sh.t.b4Ref(denseRIDs(n), col1, sh.lo, sh.hi, nil, sh.t.arena)
			continue
		}
		sh.t.B3(cpu, c.r.Keys, bucket, col1, col2, sh.lo, sh.hi, nil)
		sh.t.B4Charge(sh.lo, sh.hi, false)
	}
	if cut < n && linked {
		t.mergeRef(other)
	} else if cut < n {
		t.Merge(other)
	}
	other.Release()
	return t
}

// walkCases are the tables the differential tests probe: flat and
// segmented, a uniform build side with about three rids per key and a
// high-skew one (a quarter of its tuples share one key), each probed at
// selectivity 1 and 0.5 (half the probe keys absent) with keys drawn
// uniformly from the build's key domain — every 4099th one the heavy key —
// and a tiny flat table of four buckets holding about 75 keys each.
func walkCases() []*walkCase {
	n := 2*sched.MorselItems + 3617
	uniform := rel.Gen{N: n, KeyRange: n / 3, Seed: 31}.Build()
	domain := rel.Gen{N: n, Seed: 33}.Build()
	skewed := rel.Gen{N: n, Dist: rel.HighSkew, Seed: 32}.Probe(domain, 1.0)
	var cases []*walkCase
	for _, bits := range []uint{0, 6} {
		for _, build := range []struct {
			name      string
			r, domain rel.Relation
		}{{"uniform", uniform, uniform}, {"high-skew", skewed, domain}} {
			for _, sel := range []float64{1, 0.5} {
				r := build.r
				s := rel.Gen{N: n, Seed: 34}.Probe(build.domain, sel)
				for i := 0; i < n; i += 4099 {
					s.Keys[i] = build.domain.Keys[0] // the high-skew build's heavy key, when skewed
				}
				if bits > 0 {
					r, _ = byPartition(r, bits)
					s, _ = byPartition(s, bits)
				}
				cases = append(cases, &walkCase{name: fmt.Sprintf("bits=%d/%s/sel=%v", bits, build.name, sel), r: r, s: s, bits: bits})
			}
		}
	}
	tiny := rel.Gen{N: 600, KeyRange: 300, Seed: 35}.Build()
	cases = append(cases, &walkCase{name: "tiny", r: tiny, s: rel.Gen{N: 5000, Seed: 36}.Probe(tiny, 0.5), groups: 4})

	cpu := device.New(device.APUCPU())
	for _, c := range cases {
		t := c.table(c.r.Len(), false)
		c.bucket = make([]int32, c.s.Len())
		if c.bits > 0 {
			t.P1Seg(cpu, c.s.Keys, c.bucket, 0, c.s.Len())
		} else {
			t.P1(cpu, c.s.Keys, c.bucket, 0, c.s.Len())
		}
	}
	return cases
}

// walkCols are Walk's output columns.
type walkCols struct{ work, vis, match []int32 }

// walk runs Walk over the case's probe side on range morsels of pool.
func (c *walkCase) walk(pool *sched.Pool, t *Table) walkCols {
	n := c.s.Len()
	w := walkCols{make([]int32, n), make([]int32, n), make([]int32, n)}
	pool.MapRange(0, n, func(lo, hi int) device.Acct {
		t.Walk(c.s.Keys, c.bucket, w.work, w.vis, w.match, lo, hi)
		return device.Acct{}
	})
	return w
}

func (w walkCols) equal(o walkCols) bool {
	return slices.Equal(w.work, o.work) && slices.Equal(w.vis, o.vis) && slices.Equal(w.match, o.match)
}

// TestSealedWalkMatchesLinked: Walk writes the same work, vis and match
// columns on a sealed table as on the key lists it was sealed from, on
// every walkCases table, whether sealed on one worker or on a pool — absent
// keys included, which visit every key of their bucket and one more — and
// on a table built as two separate tables merged and then sealed. A sealed
// table holds only its counts and layout, and Release hands both back.
func TestSealedWalkMatchesLinked(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, c := range walkCases() {
		for _, cut := range []int{c.r.Len(), c.r.Len() / 3} {
			name := fmt.Sprintf("%s/merged=%v", c.name, cut < c.r.Len())
			linked := c.table(cut, false)
			want := c.walk(pool, linked)
			for _, sealPool := range []*sched.Pool{nil, pool} {
				sealed := c.table(cut, false)
				sealed.Seal(sealPool)
				if got := c.walk(pool, sealed); !got.equal(want) {
					t.Fatalf("%s: the sealed walk's columns differ from the linked walk's", name)
				}
				if sealed.Head != nil || sealed.nodes != nil {
					t.Fatalf("%s: the sealed table kept its key-list heads or its key nodes", name)
				}
				keys := int(sealed.NumKeys())
				if want := int64(2*len(sealed.Count)+1+2*keys) * alloc.WordBytes; sealed.Bytes() != want {
					t.Fatalf("%s: a sealed table of %d keys holds %d B, want %d", name, keys, sealed.Bytes(), want)
				}
				sealed.Release()
				if sealed.Bytes() != 0 {
					t.Fatalf("%s: a released sealed table still holds %d B", name, sealed.Bytes())
				}
			}
			var pairs int64
			for _, m := range want.match {
				pairs += int64(m)
			}
			if naive := rel.NaiveJoinCount(c.r, c.s); pairs != naive {
				t.Fatalf("%s: the walk found %d pairs, the naive join %d", name, pairs, naive)
			}
		}
	}
}

// TestChargesMatchKernels holds P2Charge, P3Charge and P4Charge, computed
// from a sealed table's Walk columns, to the accounted kernels they
// replaced (p2Ref, p3Ref, p4Ref over the paper's linked table) on every walkCases
// table: per device share, in index and in grouped order, with the shares
// cut at both ends, at a third, inside a morsel (an odd lo) and in the
// ragged last morsel; and per range morsel of each share, the output
// charged as a fresh arena's. The output arenas' totals must agree too.
func TestChargesMatchKernels(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	cpu, gpu := device.New(device.APUCPU()), device.New(device.APUGPU())
	cfg := alloc.Config{Strategy: alloc.Block, BlockBytes: 20}
	type morsel struct {
		a3, a4 device.Acct
		st     alloc.Stats
	}
	for _, c := range walkCases() {
		n := c.s.Len()
		linked, sealed := c.table(c.r.Len(), true), c.table(c.r.Len(), false)
		sealed.Seal(pool)
		cols := c.walk(pool, sealed)
		head, work, node, rids := make([]int32, n), make([]int32, n), make([]int32, n), denseRIDs(n)
		linked.p2Ref(c.bucket, head, work, 0, n)
		if !slices.Equal(work, cols.work) {
			t.Fatalf("%s: Walk's work hints differ from p2's", c.name)
		}
		for _, cut := range []int{0, n, n / 3, min(sched.MorselItems+77, n-1), n - 1001} {
			for _, sh := range []share{{cpu, sealed, 0, cut}, {gpu, sealed, cut, n}} {
				if sh.lo == sh.hi {
					continue
				}
				name := fmt.Sprintf("%s cut=%d share [%d,%d)", c.name, cut, sh.lo, sh.hi)
				if g, w := sealed.P2Charge(sh.lo, sh.hi), linked.p2Ref(c.bucket, head, nil, sh.lo, sh.hi); g != w {
					t.Fatalf("%s: p2 acct\n got %+v\nwant %+v", name, g, w)
				}
				for _, grouped := range []bool{false, true} {
					var order []int32
					if grouped && sh.d.WavefrontSize > 1 && sh.hi-sh.lo > 1 {
						order = sched.GroupOrder(work, sh.lo, sh.hi, 16)
					}
					if g, w := sealed.P3Charge(sh.d, cols.vis, sh.lo, sh.hi, order), linked.p3Ref(sh.d, c.s.Keys, head, node, sh.lo, sh.hi, order); g != w {
						t.Fatalf("%s grouped=%v: p3 acct\n got %+v\nwant %+v", name, grouped, g, w)
					}
					got := Out{Arena: alloc.New(cfg, 64), Materialize: true}
					want := Out{Arena: alloc.New(cfg, 64), Materialize: true}
					if g, w := sealed.P4Charge(sh.d, cols.match, &got, sh.lo, sh.hi, order), linked.p4Ref(sh.d, rids, node, &want, sh.lo, sh.hi, order); g != w {
						t.Fatalf("%s grouped=%v: p4 acct\n got %+v\nwant %+v", name, grouped, g, w)
					}
					requireSameOut(t, fmt.Sprintf("%s grouped=%v", name, grouped), &got, &want)
					alloc.PutWords(order)
				}
				gotM := sched.CollectRange(pool, sh.lo, sh.hi, func(lo, hi int) morsel {
					o := Out{Materialize: true}
					a4 := sealed.P4Charge(sh.d, cols.match, &o, lo, hi, nil)
					return morsel{sealed.P3Charge(sh.d, cols.vis, lo, hi, nil), a4, o.ChargeFresh(&a4, cfg)}
				})
				// The reference walks write node, so its morsels run one
				// after another.
				wantM := sched.CollectRange(nil, sh.lo, sh.hi, func(lo, hi int) morsel {
					a3 := linked.p3Ref(sh.d, c.s.Keys, head, node, lo, hi, nil)
					o := Out{Materialize: true, Arena: alloc.New(cfg, 4*(hi-lo)+64)}
					defer o.Arena.Release()
					a4 := linked.p4Ref(sh.d, rids, node, &o, lo, hi, nil)
					return morsel{a3, a4, o.Arena.Stats()}
				})
				if !slices.Equal(gotM, wantM) {
					t.Fatalf("%s: morsels\n got %+v\nwant %+v", name, gotM, wantM)
				}
			}
		}
	}
}

// TestSealReturnsSlabs: Seal hands the key-list heads and the key nodes to
// the recycler at once — the next takes of their size classes are those
// slabs — and Release hands back the sealed layout.
func TestSealReturnsSlabs(t *testing.T) {
	r := rel.Gen{N: 30000, Seed: 37}.Build()
	tbl := buildSerial(r)
	slabOf := func(w []int32) *int32 { return &w[:1][0] }
	head, nodes := tbl.Head, tbl.nodes
	headSlab, nodesSlab := slabOf(head), slabOf(nodes)
	tbl.Seal(nil)
	for _, want := range []struct {
		name string
		slab *int32
		n    int
	}{{"nodes", nodesSlab, len(nodes)}, {"heads", headSlab, len(head)}} {
		got := alloc.GetWords(want.n)
		if slabOf(got) != want.slab {
			t.Errorf("Seal did not hand the %s back to the recycler", want.name)
		}
		defer alloc.PutWords(got)
	}
	ent, off := tbl.ent, tbl.off
	entSlab, offSlab := slabOf(ent), slabOf(off)
	tbl.Release()
	for _, want := range []struct {
		name string
		slab *int32
		n    int
	}{{"pairs", entSlab, len(ent)}, {"offsets", offSlab, len(off)}} {
		got := alloc.GetWords(want.n)
		if slabOf(got) != want.slab {
			t.Errorf("Release did not hand the sealed %s back to the recycler", want.name)
		}
		defer alloc.PutWords(got)
	}
}

// TestBuildChargesMatchKernels holds the build's one host pass and the
// charges of b3, b4, the allocator and Merge to the kernels that built the
// paper's linked table (b3Ref, b4Ref, mergeRef), record by record: every
// b3 and b4 record per device share on a single stream, in index and in
// grouped order, and per (step, share, shard) on pools of 1 and 2 — where
// the reference serves each shard's owner index through a Local of its own
// — and the merge of separate tables; and after the build every table's
// bucket counts, key lists and rid counts, distinct keys, allocator Stats
// and Used and BytesResident. Builds are uniform (about three rids per key)
// and high-skew, on a flat table, a segmented one with more partitions than
// shards (built in place) and one with fewer (scattered), under Basic and
// Block allocation at 256 B and 2 KB, shared and separate, with b2 and b3
// cut at both ends, at a third, inside a morsel and at n−1001, and b4 cut
// elsewhere on a shared table. Then PHJ-PL′'s pair tables: InsertOne and
// ProbeOne against insertOneRef and probeOneRef call by call, one arena
// across every pair.
func TestBuildChargesMatchKernels(t *testing.T) {
	pools := []*sched.Pool{sched.NewPool(1), sched.NewPool(2)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	n := sched.MorselItems + 3616
	domain := rel.Gen{N: n, Seed: 7}.Build()
	inputs := []struct {
		name string
		r    rel.Relation
	}{
		{"uniform", rel.Gen{N: n, KeyRange: n / 3, Seed: 41}.Build()},
		{"high-skew", rel.Gen{N: n, Dist: rel.HighSkew, Seed: 8}.Probe(domain, 1.0)},
	}
	cfgs := []alloc.Config{{Strategy: alloc.Basic}, {Strategy: alloc.Block, BlockBytes: 256}, {Strategy: alloc.Block}}
	cuts := []int{0, n, n / 3, sched.MorselItems + 77, n - 1001}
	modes := []string{"index", "grouped", "pool=1", "pool=2"}
	for _, in := range inputs {
		for _, bits := range []uint{0, 6, 3} {
			side := sideOf(in.r, bits)
			for _, cfg := range cfgs {
				for _, separate := range []bool{false, true} {
					for ci, cut := range cuts {
						// A tuple's b3 and b4 meet one table: separate
						// tables are cut alike (DD).
						cut4 := cut
						if !separate {
							cut4 = cuts[(ci+2)%len(cuts)]
						}
						// The pooled reference runs its shards one after
						// another: pool=2 is held to pool=1's.
						var ref *insertBuild
						var w3, w4 [][]device.Acct
						var wm device.Acct
						for mi, mode := range modes {
							name := fmt.Sprintf("%s bits=%d %+v separate=%v cuts=%d,%d %s", in.name, bits, cfg, separate, cut, cut4, mode)
							got := newInsertBuild(side, separate, false, cfg)
							var g3, g4 [][]device.Acct
							if mi < 2 {
								a3, a4 := got.serial(cut, cut4, mode == "grouped")
								g3, g4 = [][]device.Acct{a3}, [][]device.Acct{a4}
							} else {
								g3, g4 = got.pooled(pools[mi-2], cut, cut4, nil)
							}
							if mi < 3 {
								if ref != nil {
									ref.release()
								}
								ref = newInsertBuild(side, separate, true, cfg)
								if mi < 2 {
									b3, b4 := ref.serial(cut, cut4, mode == "grouped")
									w3, w4 = [][]device.Acct{b3}, [][]device.Acct{b4}
								} else {
									w3, w4 = ref.pooled(nil, cut, cut4, ascending(ref.shards()))
								}
								if separate {
									wm = ref.merge()
								}
							}
							for i := range w3 {
								if !slices.Equal(g3[i], w3[i]) {
									t.Fatalf("%s: b3 records %d\n got %+v\nwant %+v", name, i, g3[i], w3[i])
								}
								if !slices.Equal(g4[i], w4[i]) {
									t.Fatalf("%s: b4 records %d\n got %+v\nwant %+v", name, i, g4[i], w4[i])
								}
							}
							if separate {
								if g := got.merge(); g != wm {
									t.Fatalf("%s: merge record\n got %+v\nwant %+v", name, g, wm)
								}
							}
							if err := got.sameAs(ref); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got.release()
						}
						ref.release()
					}
				}
			}
		}
	}

	const bits = 6
	for _, in := range inputs {
		r, rOff := byPartition(in.r, bits)
		s, sOff := byPartition(rel.Gen{N: n / 16, Seed: 42}.Probe(in.r, 0.7), bits)
		for _, cfg := range cfgs {
			name := fmt.Sprintf("pair tables %s %+v", in.name, cfg)
			lean, linked := alloc.New(cfg, 0), alloc.New(cfg, 64)
			gotOut := Out{Arena: alloc.New(cfg, 64), Materialize: true}
			wantOut := Out{Arena: alloc.New(cfg, 64), Materialize: true}
			for p := range 1 << bits {
				rLo, rHi := int(rOff[p]), int(rOff[p+1])
				nb := max(rHi-rLo, 2)
				g, w := New(nb, rHi-rLo, lean), New(nb, 0, linked)
				for i := rLo; i < rHi; i++ {
					if ga, wa := g.InsertOne(r.Keys[i]), w.insertOneFusedRef(r.Keys[i], int32(i)); ga != wa {
						t.Fatalf("%s: pair %d tuple %d: insert record\n got %+v\nwant %+v", name, p, i, ga, wa)
					}
				}
				if err := sameKeyLists(g, w); err != nil {
					t.Fatalf("%s: pair %d: %v", name, p, err)
				}
				if g.NumKeys() != w.NumKeys() || g.BytesResident() != w.BytesResident() {
					t.Fatalf("%s: pair %d holds %d keys in %d B, the reference %d in %d B", name, p, g.NumKeys(), g.BytesResident(), w.NumKeys(), w.BytesResident())
				}
				for i := int(sOff[p]); i < int(sOff[p+1]); i++ {
					if ga, wa := g.ProbeOne(s.Keys[i], &gotOut), w.probeOneRef(s.Keys[i], int32(i), &wantOut); ga != wa {
						t.Fatalf("%s: pair %d probe tuple %d: record\n got %+v\nwant %+v", name, p, i, ga, wa)
					}
				}
				g.Release()
				w.Release()
			}
			if lean.Stats() != linked.Stats() || lean.Used() != linked.Used() {
				t.Fatalf("%s: arena %+v, %d words; the reference %+v, %d", name, lean.Stats(), lean.Used(), linked.Stats(), linked.Used())
			}
			requireSameOut(t, name, &gotOut, &wantOut)
		}
	}
}
