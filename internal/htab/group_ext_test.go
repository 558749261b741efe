package htab

import (
	"testing"

	"apujoin/internal/device"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

func TestGroupingReducesP3Divergence(t *testing.T) {
	n := 1 << 18
	r := rel.Gen{N: n, Seed: 1}.Build()
	s := rel.Gen{N: n, Seed: 2}.Probe(r, 1.0)
	tbl := newFlat(n)
	gpu := device.New(device.APUGPU())
	bucket := make([]int32, n)
	vis := make([]int32, n)
	match := make([]int32, n)
	work := make([]int32, n)
	tbl.B1(gpu, r.Keys, bucket, 0, n)
	tbl.B2(gpu, bucket, nil, 0, n)
	tbl.B3(gpu, r.Keys, bucket, vis, match, 0, n, nil)
	tbl.B4Charge(0, n, false)

	tbl.B1(gpu, s.Keys, bucket, 0, n)
	tbl.Walk(s.Keys, bucket, work, vis, match, 0, n)
	plain := tbl.P3Charge(gpu, vis, 0, n, nil)
	order := sched.GroupOrder(work, 0, n, 32)
	grouped := tbl.P3Charge(gpu, vis, 0, n, order)
	t.Logf("P3 divergence plain=%.3f grouped=%.3f", plain.DivergenceFactor(), grouped.DivergenceFactor())
	t.Logf("P3 GPU time plain=%.2fms grouped=%.2fms", gpu.TimeNS(plain, device.UniformEnv(0.5))/1e6, gpu.TimeNS(grouped, device.UniformEnv(0.5))/1e6)
	if grouped.DivergenceFactor() >= plain.DivergenceFactor() {
		t.Errorf("grouping did not reduce divergence")
	}
}
