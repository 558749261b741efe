package core

import (
	"testing"

	"apujoin/internal/device"
	"apujoin/internal/mem"
	"apujoin/internal/rel"
)

func TestExternalJoin(t *testing.T) {
	g := rel.Gen{N: 1 << 18, Seed: 7}
	r := g.Build()
	s := rel.Gen{N: 1 << 18, Seed: 8}.Probe(r, 1.0)
	want := rel.NaiveJoinCount(r, s)

	// Shrink the zero-copy buffer so the data "exceeds" it.
	zc := mem.NewZeroCopy()
	zc.Capacity = 1 << 20 // 1 MB: forces external path
	opt := Options{Algo: SHJ, Scheme: PL, Delta: 0.1, PilotItems: 4096, ZeroCopy: zc}
	if _, err := Run(r, s, opt); err != ErrExceedsZeroCopy {
		t.Fatalf("expected ErrExceedsZeroCopy, got %v", err)
	}
	res, err := RunExternal(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Errorf("matches %d want %d", res.Matches, want)
	}
	t.Logf("pairs=%d chunk=%d part=%.1fms join=%.1fms copy=%.1fms total=%.1fms",
		res.Pairs, res.ChunkTuples, res.PartitionNS/1e6, res.JoinNS/1e6, res.DataCopyNS/1e6, res.TotalNS/1e6)
}

// TestExternalJoinWideOuterFanOut: a buffer small beside the data needs more
// than 1<<radix.MaxBitsPerPass outer partitions, which each round reaches in
// passes of at most MaxBitsPerPass bits — 9 bits as 8+1 and the 12-bit cap
// as 8+4 — and every match is still found.
func TestExternalJoinWideOuterFanOut(t *testing.T) {
	for _, tc := range []struct {
		n        int
		capacity int64
		algo     Algo
		bits     uint
	}{
		{1 << 15, 1 << 12, SHJ, 9},
		{3 << 15, 1 << 11, PHJ, 12},
	} {
		r := rel.Gen{N: tc.n, Seed: 7}.Build()
		s := rel.Gen{N: tc.n, Seed: 8}.Probe(r, 1.0)
		zc := mem.NewZeroCopy()
		zc.Capacity = tc.capacity
		opt := Options{Algo: tc.algo, Scheme: PL, Delta: 0.1, PilotItems: 64, ZeroCopy: zc}
		res, err := RunExternal(r, s, opt)
		if err != nil {
			t.Fatalf("%d bits: %v", tc.bits, err)
		}
		if res.OuterBits != tc.bits {
			t.Fatalf("outer bits %d, want %d", res.OuterBits, tc.bits)
		}
		if want := rel.NaiveJoinCount(r, s); res.Matches != want {
			t.Errorf("%d bits: matches %d want %d", tc.bits, res.Matches, want)
		}
	}
}

// TestExternalPartitionUsesCallerProfiles: the chunked partition phase runs
// on the devices the caller configured, like the per-pair sub-joins. The
// default profiles read what the stock A8-3870K pair reads, and a GPU that
// is not the default moves PartitionNS.
func TestExternalPartitionUsesCallerProfiles(t *testing.T) {
	r := rel.Gen{N: 1 << 16, Seed: 7}.Build()
	s := rel.Gen{N: 1 << 16, Seed: 8}.Probe(r, 1.0)
	zc := mem.NewZeroCopy()
	zc.Capacity = 1 << 19
	run := func(opt Options) *ExternalResult {
		t.Helper()
		res, err := RunExternal(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	opt := Options{Algo: SHJ, Scheme: PL, Delta: 0.1, PilotItems: 4096, ZeroCopy: zc}
	base := run(opt)
	opt.CPU, opt.GPU = device.APUCPU(), device.APUGPU()
	if stock := run(opt); stock.PartitionNS != base.PartitionNS || stock.TotalNS != base.TotalNS {
		t.Fatalf("explicit default profiles: partition %v total %v, defaults gave %v / %v",
			stock.PartitionNS, stock.TotalNS, base.PartitionNS, base.TotalNS)
	}
	opt.GPU = device.DiscreteGPU()
	if fast := run(opt); fast.Matches != base.Matches || fast.PartitionNS >= base.PartitionNS {
		t.Fatalf("HD 7970 in place of the APU's GPU: matches %d (want %d), partition %v not below %v",
			fast.Matches, base.Matches, fast.PartitionNS, base.PartitionNS)
	}
}
