package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"apujoin/internal/alloc"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// keeper holds build records as a catalog entry does, under a budget that
// takes every record: it keeps the record a run hands it when it holds
// none, and counts hits and misses — a run under another key than the kept
// record's runs uncached and hands back nothing, but misses. handed counts
// the records runs handed it besides the kept one's hits, which RunKept
// makes only for a keeper that holds none.
type keeper struct {
	rec                  *BuildRecord
	hits, misses, handed int
}

func (k *keeper) run(r, s rel.Relation, opt Options) (*Result, error) {
	res, rec, err := RunKept(context.Background(), r, s, opt, k.rec)
	switch {
	case err != nil || res.Scheme == CoarsePL:
	case rec == nil:
		k.misses++
	case rec == k.rec:
		k.hits++
	default:
		k.misses++
		k.handed++
		if k.rec != nil {
			rec.Release()
		} else {
			k.rec = rec
		}
	}
	return res, err
}

func (k *keeper) free() {
	if k.rec != nil {
		k.rec.Release()
		k.rec = nil
	}
}

// runColdWarm runs one join three ways — uncached, cold through a fresh
// keeper (which keeps the record the run builds) and warm through the same
// keeper — fails unless the three Results are deep-equal and the warm run
// probed the kept table, and returns the Result. PHJ-PL' builds no shared
// table, so its runs hand back no record and count no lookup.
func runColdWarm(tb testing.TB, r, s rel.Relation, opt Options) *Result {
	tb.Helper()
	var k keeper
	defer k.free()
	uncached, err := Run(r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	cold, err := k.run(r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := k.run(r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(uncached, cold) {
		tb.Errorf("a cold kept run differs from the uncached run:\n uncached %+v\n cold     %+v", uncached, cold)
	}
	if !reflect.DeepEqual(cold, warm) {
		tb.Errorf("the warm run differs from the cold run:\n cold %+v\n warm %+v", cold, warm)
	}
	if opt.Scheme == CoarsePL && k.hits+k.misses != 0 {
		tb.Errorf("PHJ-PL' runs handed back %d records, want none", k.hits+k.misses)
	}
	if opt.Scheme != CoarsePL && (k.hits != 1 || k.misses != 1) {
		tb.Errorf("the kept runs counted %d hits and %d misses, want 1 and 1", k.hits, k.misses)
	}
	// The three share one fold, so the order it adds the build side in is
	// checked against the order the phases ran in before the build side
	// was split out: r's passes, s's passes, the build, the probe.
	var want []string
	if opt.Algo == PHJ {
		want = append(want, fmt.Sprint("partition/", r.Len()), fmt.Sprint("partition/", s.Len()))
	}
	if opt.Scheme != CoarsePL {
		want = append(want, fmt.Sprint("build/", r.Len()), fmt.Sprint("probe/", s.Len()))
	}
	var got []string
	for _, st := range warm.Steps {
		if k := fmt.Sprint(st.Phase, "/", st.Items); len(got) == 0 || got[len(got)-1] != k {
			got = append(got, k)
		}
	}
	if opt.Scheme != BasicUnit && !slices.Equal(got, want) {
		tb.Errorf("steps recorded in the order %v, want %v", got, want)
	}
	return warm
}

// TestRunKeptDifferential: a join's Result is the same whether its build
// side runs (uncached, or cold) or is read from a kept record (warm) — for both algorithms, every scheme, both architectures, shared and
// separate tables, with and without grouping, on one worker and on all of
// them. Among the separate-table runs are the GPU-only ones, whose table is
// the GPU's after the swap, and DD, whose tables merge.
func TestRunKeptDifferential(t *testing.T) {
	r := rel.Gen{N: 6000, Dist: rel.LowSkew, Seed: 81}.Build()
	s := rel.Gen{N: 7000, Dist: rel.LowSkew, Seed: 82}.Probe(r, 0.8)
	want := rel.NaiveJoinCount(r, s)
	workerSets := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerSets = append(workerSets, p)
	}
	for _, algo := range []Algo{SHJ, PHJ} {
		for _, scheme := range []Scheme{CPUOnly, GPUOnly, OL, DD, PL, CoarsePL, BasicUnit} {
			for _, arch := range []Arch{Coupled, Discrete} {
				for _, separate := range []bool{false, true} {
					for _, grouping := range []bool{false, true} {
						if (scheme == CoarsePL && algo != PHJ) || (scheme == PL && (separate || arch == Discrete)) ||
							(scheme == CoarsePL && separate) || (arch == Discrete && !separate) {
							continue // invalid, or the same run as its separate twin
						}
						for _, workers := range workerSets {
							opt := Options{
								Algo: algo, Scheme: scheme, Arch: arch, SeparateTables: separate,
								Grouping: grouping, Workers: workers, Delta: 0.25, PilotItems: 1024,
								RadixTargetBytes: 512, // two radix passes
							}
							name := fmt.Sprintf("%v/%v/%v/separate=%v/grouping=%v/workers=%d", algo, scheme, arch, separate, grouping, workers)
							t.Run(name, func(t *testing.T) {
								if res := runColdWarm(t, r, s, opt); res.Matches != want {
									t.Fatalf("matches %d, want %d", res.Matches, want)
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestRunKeptKeys: a record serves only runs under the configuration and
// ratios it was built with. A run under another key — other build ratios,
// another allocator — builds its own table, reports what it would uncached
// and, since the caller keeps a record already, frees the table and hands
// back no record: it neither reads the one it was given nor makes (and
// seals) one the caller cannot keep.
func TestRunKeptKeys(t *testing.T) {
	r := rel.Gen{N: 5000, Seed: 83}.Build()
	s := rel.Gen{N: 5000, Seed: 84}.Probe(r, 1.0)
	base := Options{Algo: PHJ, Scheme: DD, Delta: 0.25, PilotItems: 1024}
	other := base
	other.FixedBuild = sched.Ratios{0.3}
	basic := base
	basic.Alloc = alloc.Config{Strategy: alloc.Basic}

	var k keeper
	defer k.free()
	if _, err := k.run(r, s, base); err != nil {
		t.Fatal(err)
	}
	first := k.rec
	if first == nil || first.Bytes() <= 0 {
		t.Fatal("the cold run handed back no record")
	}
	for name, opt := range map[string]Options{"other build ratios": other, "basic allocator": basic} {
		want, err := Run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.run(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the run handed a record keyed otherwise differs from its uncached run", name)
		}
	}
	if k.rec != first || k.hits != 0 || k.misses != 3 {
		t.Errorf("a run under another key read the first record (%d hits, %d misses)", k.hits, k.misses)
	}
	if k.handed != 1 {
		t.Errorf("runs handed back %d records, want only the cold run's: a run under another key made a record", k.handed)
	}
}

// TestBuildRecordReleaseReturnsSlabs: a kept record is sealed — it holds
// its table's bucket counts and the flat probe layout (off, ent), no key
// nodes and no key-list heads — and Release hands those three slabs to the
// recycler: the next takes of their sizes are the slabs themselves.
func TestBuildRecordReleaseReturnsSlabs(t *testing.T) {
	r := rel.Gen{N: 30000, Seed: 87}.Build()
	s := rel.Gen{N: 30000, Seed: 88}.Probe(r, 1.0)
	var k keeper
	if _, err := k.run(r, s, Options{Algo: SHJ, Scheme: CPUOnly}); err != nil {
		t.Fatal(err)
	}
	// nodes, off and ent are the table's own; they are read through reflect.
	table := reflect.ValueOf(k.rec.table).Elem()
	if table.FieldByName("nodes").Len() != 0 || k.rec.table.Head != nil {
		t.Fatal("the kept record still holds its key nodes or its key-list heads")
	}
	type slab struct {
		data unsafe.Pointer
		n    int
	}
	var slabs []slab
	var words int
	for _, f := range []reflect.Value{table.FieldByName("Count"), table.FieldByName("off"), table.FieldByName("ent")} {
		slabs = append(slabs, slab{unsafe.Pointer(f.Pointer()), f.Len()})
		words += f.Len()
	}
	if got := k.rec.Bytes(); got != int64(words)*alloc.WordBytes {
		t.Errorf("the sealed record counts %d B, its slabs hold %d", got, words*alloc.WordBytes)
	}
	k.free()
	taken := map[unsafe.Pointer]bool{}
	for _, sl := range slabs {
		got := alloc.GetWords(sl.n)
		defer alloc.PutWords(got)
		taken[unsafe.Pointer(unsafe.SliceData(got))] = true
	}
	for i, sl := range slabs {
		if !taken[sl.data] {
			t.Errorf("slab %d of the released record (%d words) did not go back to the recycler", i, sl.n)
		}
	}
}

// TestSealedRecordSize: the record a 2^20-tuple PHJ-PL build side keeps is
// sealed to its bucket counts and flat layout, at most 17 MB, while the
// probe still prices the built table's resident size. Before sealing, the
// table holds its bucket headers and a 3-word key node per build tuple —
// per distinct key, since r's keys are distinct —, about 21.0 MB; the
// sealed layout is made beside it, so a cold join that keeps its record
// peaks at the two together.
func TestSealedRecordSize(t *testing.T) {
	r := rel.Gen{N: 1 << 20, Seed: 93}.Build()
	s := rel.Gen{N: 1 << 12, Seed: 94}.Probe(r, 1.0)
	opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.1, PilotItems: 1 << 12}
	var k keeper
	defer k.free()
	res, err := k.run(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := Run(r, s, opt); err != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("the cold kept run differs from the uncached run (err %v)", err)
	}
	def := opt
	def.SetDefaults()
	rn := newRunner(r, s, def)
	rn.makeTables()
	lean := rn.table.Bytes()
	buckets := int64(len(rn.table.Count))
	rn.release()
	keys := k.rec.table.NumKeys()
	sealedExtra := k.rec.Bytes() - buckets*alloc.WordBytes // off and ent, made while the table is held
	t.Logf("sealed record %d B, built table %d B, unsealed table %d B, peak while sealing %d B",
		k.rec.Bytes(), k.rec.tableBytes, lean, lean+sealedExtra)
	if got := k.rec.Bytes(); got > 17e6 {
		t.Errorf("the sealed record holds %d B, above 17 MB", got)
	}
	if want := (2*buckets + 3*keys) * alloc.WordBytes; keys != int64(r.Len()) || buckets != int64(len(k.rec.table.Count)) || lean != want || lean > 21.1e6 {
		t.Errorf("the unsealed table of %d keys in %d buckets holds %d B, want %d (≈ 21.0 MB)", keys, buckets, lean, want)
	}
	if k.rec.tableBytes <= k.rec.Bytes() {
		t.Errorf("the record's working set %d B is not the built table's (sealed: %d B)", k.rec.tableBytes, k.rec.Bytes())
	}
}

// TestRunKeptReleasesOnError: a cold run cancelled after its build side —
// at the probe's last step boundary — hands back no record and releases
// the one it built, so a second such run takes the table's slabs from the
// recycler instead of fresh memory. The collector is off, so that no slab
// is freed in between.
func TestRunKeptReleasesOnError(t *testing.T) {
	r := rel.Gen{N: 1 << 16, Seed: 89}.Build()
	s := rel.Gen{N: 1 << 16, Seed: 90}.Probe(r, 1.0)
	opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.1, PilotItems: 1 << 13}
	count := cancelAtBoundary(1 << 30)
	if _, _, err := RunKept(count, r, s, opt, nil); err != nil {
		t.Fatal(err)
	}
	boundaries := int(1<<30 - count.left.Load())

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, rec, err := RunKept(cancelAtBoundary(boundaries), r, s, opt, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) || res != nil || rec != nil {
			t.Fatalf("a run cancelled at its last step boundary: err %v, result %v, record %p", err, res, rec)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	if got, ceiling := run(), uint64(r.Bytes()+s.Bytes())/4; got > ceiling {
		t.Errorf("a second cancelled run allocated %d B, above %d B: the first run's record kept its slabs", got, ceiling)
	}
}

// BenchmarkRunWarmBuild is the layer number of a kept build side: one
// 2^18 × 2^18 PHJ-PL join cold (r's radix passes and the build phase run)
// and warm (the probe side alone, against the table a keeper holds). Both
// must report the uncached run's Result.
func BenchmarkRunWarmBuild(b *testing.B) {
	r := rel.Gen{N: 1 << 18, Seed: 91}.Build()
	s := rel.Gen{N: 1 << 18, Seed: 92}.Probe(r, 1.0)
	pool := sched.NewPool(0)
	defer pool.Close()
	opt := Options{Algo: PHJ, Scheme: PL, Delta: 0.05, PilotItems: 1 << 13, Pool: pool}
	want, err := Run(r, s, opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			var k keeper
			defer k.free()
			if warm {
				if _, err := k.run(r, s, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *Result
			for range b.N {
				if warm {
					res, err = k.run(r, s, opt)
				} else {
					res, err = RunCtx(context.Background(), r, s, opt)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !reflect.DeepEqual(res, want) {
				b.Fatalf("the %s run differs from the uncached run", name)
			}
		})
	}
}
