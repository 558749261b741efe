package htab

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
)

// buildAll runs the single-stream b1..b4 over r into tbl.
func buildAll(t *testing.T, tbl *Table, d *device.Device, r rel.Relation) {
	t.Helper()
	n := r.Len()
	bucket, vis, fresh := make([]int32, n), make([]int32, n), make([]int32, n)
	tbl.B1(d, r.Keys, bucket, 0, n)
	tbl.B2(d, bucket, nil, 0, n)
	tbl.B3(d, r.Keys, bucket, vis, fresh, 0, n, nil)
	tbl.B4Charge(0, n, false)
}

// newFlat returns a flat table for a build side of n tuples whose
// allocator requests are only counted.
func newFlat(n int) *Table { return New(n, n, alloc.New(alloc.Config{}, 0)) }

func TestBuildThenValidate(t *testing.T) {
	r := rel.Gen{N: 20000, Seed: 1}.Build()
	tbl := newFlat(r.Len())
	buildAll(t, tbl, device.New(device.APUCPU()), r)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tbl.NumKeys() != int64(r.Len()) {
		t.Fatalf("distinct keys %d, want %d", tbl.NumKeys(), r.Len())
	}
}

func TestLookupAfterBuild(t *testing.T) {
	r := rel.Gen{N: 5000, Seed: 2}.Build()
	tbl := newFlat(r.Len())
	buildAll(t, tbl, device.New(device.APUCPU()), r)
	for i := 0; i < 100; i++ {
		if rids := tbl.Lookup(r.Keys[i]); rids != 1 {
			t.Fatalf("key %d: %d rids, want 1", r.Keys[i], rids)
		}
	}
	if tbl.Lookup(-12345) != 0 {
		t.Fatal("absent key found")
	}
}

func TestDuplicateKeysAccumulateRIDs(t *testing.T) {
	keys := []int32{7, 7, 7, 9}
	r := rel.Relation{Keys: keys}
	tbl := New(8, r.Len(), alloc.New(alloc.Config{}, 0))
	buildAll(t, tbl, device.New(device.APUCPU()), r)
	if got := tbl.Lookup(7); got != 3 {
		t.Fatalf("key 7 holds %d rids, want 3", got)
	}
	if got := tbl.Lookup(9); got != 1 {
		t.Fatalf("key 9 holds %d rids", got)
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

	outArena := alloc.New(alloc.Config{}, 64)
	tbl := newFlat(r.Len())
	gpu := device.New(device.APUGPU())
	buildAll(t, tbl, gpu, r)

	n := s.Len()
	bucket := make([]int32, n)
	vis := make([]int32, n)
	match := make([]int32, n)
	work := make([]int32, n)
	out := Out{Arena: outArena, Materialize: true}
	tbl.B1(gpu, s.Keys, bucket, 0, n)
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
		tbl := newFlat(r.Len())
		n := r.Len()
		bucket, vis, fresh := make([]int32, n), make([]int32, n), make([]int32, n)
		for _, step := range []func(d *device.Device, lo, hi int){
			func(d *device.Device, lo, hi int) { tbl.B1(d, r.Keys, bucket, lo, hi) },
			func(d *device.Device, lo, hi int) { tbl.B2(d, bucket, nil, lo, hi) },
			func(d *device.Device, lo, hi int) { tbl.B3(d, r.Keys, bucket, vis, fresh, lo, hi, nil) },
			func(d *device.Device, lo, hi int) { tbl.B4Charge(lo, hi, false) },
		} {
			step(cpu, 0, split)
			step(gpu, split, n)
		}
		return tbl
	}

	full := build(r.Len())
	mixed := build(r.Len() / 3)
	for i := 0; i < 200; i++ {
		if a, b := full.Lookup(r.Keys[i]), mixed.Lookup(r.Keys[i]); a != b || a != 1 {
			t.Fatalf("key %d: full %d rids vs mixed %d", r.Keys[i], a, b)
		}
	}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMergePreservesAllPairs: two separate tables built over the halves of
// one build side merge into one holding every tuple.
func TestMergePreservesAllPairs(t *testing.T) {
	r := rel.Gen{N: 6000, Seed: 6}.Build()
	n, half := r.Len(), r.Len()/2
	cpu := device.New(device.APUCPU())
	bucket, vis, fresh := make([]int32, n), make([]int32, n), make([]int32, n)
	mk := func(lo, hi int) *Table {
		tbl := newFlat(n)
		tbl.B1(cpu, r.Keys, bucket, lo, hi)
		tbl.B2(cpu, bucket, nil, lo, hi)
		tbl.B3(cpu, r.Keys, bucket, vis, fresh, lo, hi, nil)
		tbl.B4Charge(lo, hi, false)
		return tbl
	}
	a, b := mk(0, half), mk(half, n)
	acct := a.Merge(b)
	if acct.Items != int64(n-half) {
		t.Fatalf("merge items %d", acct.Items)
	}
	if a.NumKeys() != int64(n) {
		t.Fatalf("after merge %d distinct keys, want %d", a.NumKeys(), n)
	}
	for i := 0; i < n; i += 97 {
		if got := a.Lookup(r.Keys[i]); got != 1 {
			t.Fatalf("after merge key %d holds %d rids", r.Keys[i], got)
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
	tbl := NewSeg(parts, 64, r.Len(), 0, radixBits, alloc.New(alloc.Config{}, 0))
	cpu := device.New(device.APUCPU())

	n := r.Len()
	partIdx := make([]int32, n)
	for i, k := range r.Keys {
		partIdx[i] = int32(hashOf(k) & (parts - 1))
	}
	bucket, vis, fresh := make([]int32, n), make([]int32, n), make([]int32, n)
	tbl.B1Seg(cpu, r.Keys, bucket, 0, n)
	tbl.B2(cpu, bucket, nil, 0, n)
	tbl.B3(cpu, r.Keys, bucket, vis, fresh, 0, n, nil)
	tbl.B4Charge(0, n, false)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := tbl.LookupSeg(r.Keys[i], int(partIdx[i])); got != 1 {
			t.Fatalf("segmented lookup key %d: %d rids", r.Keys[i], got)
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

// TestSegBucketFromHash: the segmented b1 and p1 (B1Seg, and B1 on a
// segmented table) take a tuple's partition from its hash, so they must
// give the bucket the partition index did — index*bucketsPerPart + slot,
// the index filled from the partitioned relation's offsets as the runner
// once filled it — and the bucket bucketOf gives, on a one-pass 6-bit and a
// two-pass 12-bit plan, with no hash shift and with the shift an external
// join's outer partitioning leaves. Their charge is the model's kernel's,
// which reads the index.
func TestSegBucketFromHash(t *testing.T) {
	const n = 1 << 15
	cpu := device.New(device.APUCPU())
	for _, bits := range []uint{6, 12} {
		plan := radix.PlanBits(bits)
		for _, shift := range []uint{0, 7} {
			name := fmt.Sprintf("%s, hash shift %d", plan, shift)
			r := rel.Gen{N: n, Seed: int64(bits + shift)}.Build()
			r.Keys = slices.Clone(r.Keys)
			slices.SortStableFunc(r.Keys, func(a, b int32) int {
				return hash.RadixPass(uint32(a), shift, bits) - hash.RadixPass(uint32(b), shift, bits)
			})
			offs := radix.FinalOffsetsShifted(r, plan, shift)
			if len(offs) != 1<<bits+1 {
				t.Fatalf("%s: %d offsets", name, len(offs))
			}
			partIdx := make([]int32, n)
			for part := 0; part+1 < len(offs); part++ {
				for i := offs[part]; i < offs[part+1]; i++ {
					partIdx[i] = int32(part)
				}
			}

			tbl := NewSeg(1<<bits, max(n>>bits, 4), 0, shift, bits, alloc.New(alloc.Config{}, 0))
			segMask := uint32(tbl.bucketsPerPart - 1)
			b1, p1 := make([]int32, n), make([]int32, n)
			ab, ap := tbl.B1Seg(cpu, r.Keys, b1, 0, n), tbl.B1(cpu, r.Keys, p1, 0, n)
			want := device.Acct{Items: n, Instr: n * (hash.InstrPerHash + 3), SeqBytes: n * 12}
			if ab != want || ap != want {
				t.Fatalf("%s: charges\n b1 %+v\n p1 %+v\nwant %+v", name, ab, ap, want)
			}
			for i, k := range r.Keys {
				old := partIdx[i]*int32(tbl.bucketsPerPart) + int32(hash.Murmur2(uint32(k), hash.Murmur2Seed)>>(shift+bits)&segMask)
				if b1[i] != old || p1[i] != old || uint32(old) != tbl.bucketOf(k) {
					t.Fatalf("%s: tuple %d in partition %d: b1 %d, p1 %d, index formula %d, bucketOf %d",
						name, i, partIdx[i], b1[i], p1[i], old, tbl.bucketOf(k))
				}
			}
		}
	}
}

func TestInsertProbeOneAgreeWithBatch(t *testing.T) {
	f := func(seed int64) bool {
		g := rel.Gen{N: 300, Seed: seed}
		r := g.Build()
		s := rel.Gen{N: 300, Seed: seed + 1}.Probe(r, 0.5)
		tbl := newFlat(r.Len())
		for _, key := range r.Keys {
			tbl.InsertOne(key)
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
	tbl := New(64, 1, alloc.New(alloc.Config{}, 0))
	before := tbl.BytesResident()
	tbl.InsertOne(1)
	if tbl.BytesResident() <= before {
		t.Fatal("resident bytes did not grow")
	}
}

func hashOf(k int32) int {
	// Mirror of the partition function used by the radix partitioner.
	return int(hash.Murmur2(uint32(k), hash.Murmur2Seed))
}
