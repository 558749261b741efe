package htab

import (
	"testing"
	"testing/quick"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
	"apujoin/internal/rel"
)

func buildAll(t *testing.T, tbl *Table, d *device.Device, r rel.Relation) {
	t.Helper()
	n := r.Len()
	bucket := make([]int32, n)
	node := make([]int32, n)
	tbl.B1(d, r.Keys, bucket, 0, n)
	tbl.B2(d, bucket, nil, 0, n)
	tbl.B3(d, r.Keys, bucket, node, 0, n, nil)
	tbl.B4(d, r.RIDs, node, 0, n)
}

func TestBuildThenValidate(t *testing.T) {
	r := rel.Gen{N: 20000, Seed: 1}.Build()
	arena := alloc.New(alloc.Config{}, r.Len()*6)
	tbl := New(r.Len(), arena)
	cpu := device.New(device.APUCPU())
	buildAll(t, tbl, cpu, r)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tbl.NumKeys() != int64(r.Len()) {
		t.Fatalf("distinct keys %d, want %d", tbl.NumKeys(), r.Len())
	}
}

func TestLookupAfterBuild(t *testing.T) {
	r := rel.Gen{N: 5000, Seed: 2}.Build()
	arena := alloc.New(alloc.Config{}, r.Len()*6)
	tbl := New(r.Len(), arena)
	buildAll(t, tbl, device.New(device.APUCPU()), r)
	for i := 0; i < 100; i++ {
		rids := tbl.Lookup(r.Keys[i])
		if len(rids) != 1 || rids[0] != r.RIDs[i] {
			t.Fatalf("key %d: lookup %v, want [%d]", r.Keys[i], rids, r.RIDs[i])
		}
	}
	if tbl.Lookup(-12345) != nil {
		t.Fatal("absent key found")
	}
}

func TestDuplicateKeysAccumulateRIDs(t *testing.T) {
	keys := []int32{7, 7, 7, 9}
	rids := []int32{0, 1, 2, 3}
	r := rel.Relation{Keys: keys, RIDs: rids}
	arena := alloc.New(alloc.Config{}, 256)
	tbl := New(8, arena)
	buildAll(t, tbl, device.New(device.APUCPU()), r)
	if got := tbl.Lookup(7); len(got) != 3 {
		t.Fatalf("key 7 rids %v, want 3 entries", got)
	}
	if got := tbl.Lookup(9); len(got) != 1 {
		t.Fatalf("key 9 rids %v", got)
	}
	if tbl.NumKeys() != 2 {
		t.Fatalf("numKeys %d, want 2", tbl.NumKeys())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProbePipelineCountsMatches(t *testing.T) {
	r := rel.Gen{N: 10000, Seed: 3}.Build()
	s := rel.Gen{N: 15000, Seed: 4}.Probe(r, 0.6)
	want := rel.NaiveJoinCount(r, s)

	arena := alloc.New(alloc.Config{}, r.Len()*6)
	outArena := alloc.New(alloc.Config{}, 64)
	tbl := New(r.Len(), arena)
	gpu := device.New(device.APUGPU())
	buildAll(t, tbl, gpu, r)

	n := s.Len()
	bucket := make([]int32, n)
	vis := make([]int32, n)
	match := make([]int32, n)
	work := make([]int32, n)
	out := Out{Arena: outArena, Materialize: true}
	tbl.P1(gpu, s.Keys, bucket, 0, n)
	tbl.Walk(s.Keys, bucket, work, vis, match, 0, n)
	tbl.P4Charge(gpu, match, &out, 0, n, nil)
	if out.Pairs != want {
		t.Fatalf("pairs %d, want %d", out.Pairs, want)
	}
	// Materialized pairs are charged 2 words each.
	if int64(outArena.Used()) != want*2 {
		t.Fatalf("materialized %d words, want %d", outArena.Used(), want*2)
	}
}

func TestSplitExecutionEqualsFull(t *testing.T) {
	// Running a step split across CPU and GPU halves must produce the same
	// table as one full run — the scheduler invariant.
	r := rel.Gen{N: 8000, Seed: 5}.Build()
	cpu := device.New(device.APUCPU())
	gpu := device.New(device.APUGPU())

	build := func(split int) *Table {
		arena := alloc.New(alloc.Config{}, r.Len()*6)
		tbl := New(r.Len(), arena)
		n := r.Len()
		bucket := make([]int32, n)
		node := make([]int32, n)
		for _, step := range []func(d *device.Device, lo, hi int){
			func(d *device.Device, lo, hi int) { tbl.B1(d, r.Keys, bucket, lo, hi) },
			func(d *device.Device, lo, hi int) { tbl.B2(d, bucket, nil, lo, hi) },
			func(d *device.Device, lo, hi int) { tbl.B3(d, r.Keys, bucket, node, lo, hi, nil) },
			func(d *device.Device, lo, hi int) { tbl.B4(d, r.RIDs, node, lo, hi) },
		} {
			step(cpu, 0, split)
			step(gpu, split, n)
		}
		return tbl
	}

	full := build(r.Len())
	mixed := build(r.Len() / 3)
	for i := 0; i < 200; i++ {
		a := full.Lookup(r.Keys[i])
		b := mixed.Lookup(r.Keys[i])
		if len(a) != len(b) || len(a) != 1 || a[0] != b[0] {
			t.Fatalf("key %d: full %v vs mixed %v", r.Keys[i], a, b)
		}
	}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreservesAllPairs(t *testing.T) {
	r := rel.Gen{N: 6000, Seed: 6}.Build()
	half := r.Len() / 2
	cpu := device.New(device.APUCPU())

	mk := func(part rel.Relation) *Table {
		arena := alloc.New(alloc.Config{}, r.Len()*6)
		tbl := New(r.Len(), arena)
		buildAll(t, tbl, cpu, part)
		return tbl
	}
	a := mk(r.Slice(0, half))
	b := mk(r.Slice(half, r.Len()))
	acct := a.Merge(b)
	if acct.Items != int64(r.Len()-half) {
		t.Fatalf("merge items %d", acct.Items)
	}
	if a.NumKeys() != int64(r.Len()) {
		t.Fatalf("after merge %d distinct keys, want %d", a.NumKeys(), r.Len())
	}
	for i := 0; i < r.Len(); i += 97 {
		if got := a.Lookup(r.Keys[i]); len(got) != 1 || got[0] != r.RIDs[i] {
			t.Fatalf("after merge key %d: %v", r.Keys[i], got)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedTableRouting(t *testing.T) {
	// Keys must land in the segment given by their low hash bits and be
	// findable via LookupSeg.
	const radixBits = 4
	const parts = 1 << radixBits
	r := rel.Gen{N: 4000, Seed: 7}.Build()
	arena := alloc.New(alloc.Config{}, r.Len()*6)
	tbl := NewSeg(parts, 64, 0, radixBits, arena)
	cpu := device.New(device.APUCPU())

	n := r.Len()
	partIdx := make([]int32, n)
	for i, k := range r.Keys {
		partIdx[i] = int32(hashOf(k) & (parts - 1))
	}
	bucket := make([]int32, n)
	node := make([]int32, n)
	tbl.B1Seg(cpu, r.Keys, partIdx, bucket, 0, n)
	tbl.B2(cpu, bucket, nil, 0, n)
	tbl.B3(cpu, r.Keys, bucket, node, 0, n, nil)
	tbl.B4(cpu, r.RIDs, node, 0, n)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got := tbl.LookupSeg(r.Keys[i], int(partIdx[i]))
		if len(got) != 1 || got[0] != r.RIDs[i] {
			t.Fatalf("segmented lookup key %d: %v", r.Keys[i], got)
		}
	}
	// Segments should use many distinct buckets (the seg-shift fix).
	used := 0
	for _, h := range tbl.Head {
		if h != -1 {
			used++
		}
	}
	if used < tbl.nBuckets/4 {
		t.Fatalf("only %d/%d buckets used: segment slot bits overlap radix bits", used, tbl.nBuckets)
	}
}

func TestInsertProbeOneAgreeWithBatch(t *testing.T) {
	f := func(seed int64) bool {
		g := rel.Gen{N: 300, Seed: seed}
		r := g.Build()
		s := rel.Gen{N: 300, Seed: seed + 1}.Probe(r, 0.5)
		arena := alloc.New(alloc.Config{}, 4096)
		tbl := New(r.Len(), arena)
		for i := range r.Keys {
			tbl.InsertOne(r.Keys[i], r.RIDs[i])
		}
		out := Out{}
		for i := range s.Keys {
			tbl.ProbeOne(s.Keys[i], &out)
		}
		return out.Pairs == rel.NaiveJoinCount(r, s) && tbl.NumKeys() == int64(r.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesResidentGrowsWithInserts(t *testing.T) {
	arena := alloc.New(alloc.Config{}, 1024)
	tbl := New(64, arena)
	before := tbl.BytesResident()
	tbl.InsertOne(1, 1)
	if tbl.BytesResident() <= before {
		t.Fatal("resident bytes did not grow")
	}
}

func hashOf(k int32) int {
	// Mirror of the partition function used by the radix partitioner.
	return int(hash.Murmur2(uint32(k), hash.Murmur2Seed))
}
