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
