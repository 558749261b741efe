package radix

import (
	"slices"
	"testing"
	"testing/quick"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/hash"
	"apujoin/internal/rel"
)

// Result is a fully partitioned relation.
type Result struct {
	// Rel holds the tuples grouped by partition.
	Rel rel.Relation
	// Offsets[i] is the first tuple of partition i; len = Partitions+1.
	Offsets []int32
	// Plan is the plan that produced the result.
	Plan Plan
}

// PartitionHost partitions a relation on the host in one shot (all passes,
// no co-processing, nothing charged): the data-movement reference.
func PartitionHost(in rel.Relation, plan Plan) Result {
	n := in.Len()
	cur := rel.Relation{
		Keys: append([]int32(nil), in.Keys...),
		RIDs: append([]int32(nil), in.RIDs...),
	}
	buf := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	cpu := device.New(device.APUCPU())
	var shift uint
	for _, bits := range plan.BitsPerPass {
		p := NewPass(cur, alloc.Config{}, shift, bits) // no n3: nothing charges a chunk
		p.N1(cpu, 0, n)
		p.N2(cpu, 0, n)
		p.Layout(nil)
		p.Gather(nil, buf)
		p.Release()
		cur, buf = buf, cur
		shift += bits
	}
	return Result{Rel: cur, Offsets: FinalOffsets(cur, plan), Plan: plan}
}

func TestPlanFor(t *testing.T) {
	// Small inputs still get the minimum fan-out.
	p := PlanFor(1000, 1<<20)
	if p.TotalBits() != 6 {
		t.Fatalf("small plan bits %d, want 6", p.TotalBits())
	}
	// Large inputs split across passes of ≤ MaxBitsPerPass.
	p = PlanFor(1<<24, 64<<10) // 128MB / 64KB → 11 bits
	if p.TotalBits() < 11 {
		t.Fatalf("large plan bits %d, want ≥11", p.TotalBits())
	}
	for _, b := range p.BitsPerPass {
		if b > MaxBitsPerPass {
			t.Fatalf("pass with %d bits exceeds max %d", b, MaxBitsPerPass)
		}
	}
	if p.Partitions() != 1<<p.TotalBits() {
		t.Fatal("partitions/bits mismatch")
	}
}

// TestPassesStayWithinMaxBits: PlanBits splits a wide fan-out into passes of
// at most MaxBitsPerPass bits, and NewPass refuses a wider pass outright —
// its n2 histogram and the scatter hold 1<<MaxBitsPerPass partitions.
func TestPassesStayWithinMaxBits(t *testing.T) {
	for bits, want := range map[uint][]uint{6: {6}, 8: {8}, 9: {8, 1}, 12: {8, 4}, 17: {8, 8, 1}} {
		if got := PlanBits(bits).BitsPerPass; !slices.Equal(got, want) {
			t.Errorf("PlanBits(%d) = %v, want %v", bits, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPass accepted a pass above MaxBitsPerPass")
		}
	}()
	NewPass(rel.Gen{N: 10, Seed: 1}.Build(), alloc.Config{}, 0, MaxBitsPerPass+1)
}

func TestPartitionHostGroupsByHash(t *testing.T) {
	r := rel.Gen{N: 30000, Seed: 1}.Build()
	plan := PlanFor(r.Len(), 16<<10)
	res := PartitionHost(r, plan)

	if res.Rel.Len() != r.Len() {
		t.Fatalf("lost tuples: %d vs %d", res.Rel.Len(), r.Len())
	}
	total := plan.TotalBits()
	// Every tuple must sit inside its partition's offset range.
	for part := 0; part < plan.Partitions(); part++ {
		for i := res.Offsets[part]; i < res.Offsets[part+1]; i++ {
			got := hash.RadixPass(uint32(res.Rel.Keys[i]), 0, total)
			if got != part {
				t.Fatalf("tuple %d in partition %d but hashes to %d", i, part, got)
			}
		}
	}
}

func TestPartitionPreservesMultiset(t *testing.T) {
	f := func(seed int64) bool {
		r := rel.Gen{N: 2000, Seed: seed}.Build()
		plan := PlanFor(r.Len(), 1<<10)
		res := PartitionHost(r, plan)
		// Key→rid pairs must be preserved exactly.
		want := map[[2]int32]int{}
		for i := range r.Keys {
			want[[2]int32{r.Keys[i], r.RIDs[i]}]++
		}
		for i := range res.Rel.Keys {
			want[[2]int32{res.Rel.Keys[i], res.Rel.RIDs[i]}]--
		}
		for _, c := range want {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPassEqualsSinglePassGrouping(t *testing.T) {
	// Two passes of 4 bits and one pass of 8 bits must produce identical
	// partition contents (the LSB-stability property).
	r := rel.Gen{N: 20000, Seed: 2}.Build()
	one := PartitionHost(r, Plan{BitsPerPass: []uint{8}})
	two := PartitionHost(r, Plan{BitsPerPass: []uint{4, 4}})
	if len(one.Offsets) != len(two.Offsets) {
		t.Fatal("offset shapes differ")
	}
	for p := range one.Offsets {
		if one.Offsets[p] != two.Offsets[p] {
			t.Fatalf("partition %d boundary differs: %d vs %d", p, one.Offsets[p], two.Offsets[p])
		}
	}
	// Same multiset within each partition.
	for p := 0; p+1 < len(one.Offsets); p++ {
		seen := map[int32]int{}
		for i := one.Offsets[p]; i < one.Offsets[p+1]; i++ {
			seen[one.Rel.Keys[i]]++
			seen[two.Rel.Keys[i]]--
		}
		for _, c := range seen {
			if c != 0 {
				t.Fatalf("partition %d contents differ", p)
			}
		}
	}
}

func TestPassStepsSplitAcrossDevices(t *testing.T) {
	r := rel.Gen{N: 10000, Seed: 3}.Build()
	pass := NewPass(r, alloc.Config{}, 0, 5)
	cpu := device.New(device.APUCPU())
	gpu := device.New(device.APUGPU())
	n := r.Len()
	split := n / 3
	for _, step := range []func(d *device.Device, lo, hi int) device.Acct{pass.N1, pass.N2, pass.N3} {
		step(cpu, 0, split)
		step(gpu, split, n)
	}
	pass.Layout(nil)
	out := rel.Relation{Keys: make([]int32, n), RIDs: make([]int32, n)}
	offs, _ := pass.Gather(nil, out)
	if int(offs[len(offs)-1]) != n {
		t.Fatalf("gathered %d tuples, want %d", offs[len(offs)-1], n)
	}
	for p := 0; p+1 < len(offs); p++ {
		for i := offs[p]; i < offs[p+1]; i++ {
			if hash.RadixPass(uint32(out.Keys[i]), 0, 5) != p {
				t.Fatalf("tuple %d misplaced", i)
			}
		}
	}
}

func TestN2N3Accounting(t *testing.T) {
	r := rel.Gen{N: 1000, Seed: 4}.Build()
	pass := NewPass(r, alloc.Config{}, 0, 6)
	cpu := device.New(device.APUCPU())
	pass.N1(cpu, 0, r.Len())
	a2 := pass.N2(cpu, 0, r.Len())
	if a2.AtomicOps != int64(r.Len()) || a2.AtomicTargets != 64 {
		t.Fatalf("n2 accounting: %+v", a2)
	}
	a3 := pass.N3(cpu, 0, r.Len())
	if a3.AllocAtomics == 0 {
		t.Fatal("n3 chunk allocations not accounted")
	}
}

func TestFinalOffsetsShifted(t *testing.T) {
	// With a hash shift, partitions must group on the shifted bits.
	r := rel.Gen{N: 5000, Seed: 5}.Build()
	const shift = 3
	pass := NewPass(r, alloc.Config{}, shift, 4)
	cpu := device.New(device.APUCPU())
	pass.N1(cpu, 0, r.Len())
	pass.N2(cpu, 0, r.Len())
	pass.Layout(nil)
	out := rel.Relation{Keys: make([]int32, r.Len()), RIDs: make([]int32, r.Len())}
	pass.Gather(nil, out)
	offs := FinalOffsetsShifted(out, Plan{BitsPerPass: []uint{4}}, shift)
	for p := 0; p+1 < len(offs); p++ {
		for i := offs[p]; i < offs[p+1]; i++ {
			if hash.RadixPass(uint32(out.Keys[i]), shift, 4) != p {
				t.Fatalf("shifted partition %d holds stranger at %d", p, i)
			}
		}
	}
}
