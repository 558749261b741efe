package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheModelResidentHitsHigh(t *testing.T) {
	cm := NewCacheModel()
	if h := cm.HitRatio(1<<20, 0); h < 0.9 {
		t.Fatalf("1MB working set in 4MB cache: hit %v", h)
	}
}

func TestCacheModelLargeWorkingSetMisses(t *testing.T) {
	cm := NewCacheModel()
	if h := cm.HitRatio(400<<20, 0); h > 0.05 {
		t.Fatalf("400MB working set: hit %v too high", h)
	}
}

func TestCacheModelMonotoneInWorkingSet(t *testing.T) {
	cm := NewCacheModel()
	f := func(a, b uint32) bool {
		ws1, ws2 := int64(a%(1<<28)), int64(b%(1<<28))
		if ws1 > ws2 {
			ws1, ws2 = ws2, ws1
		}
		return cm.HitRatio(ws1, 0) >= cm.HitRatio(ws2, 0)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedBeatsSeparate(t *testing.T) {
	cm := NewCacheModel()
	for _, ws := range []int64{1 << 20, 8 << 20, 64 << 20} {
		if cm.SharedHitRatio(ws, 0) <= cm.SeparateHitRatio(ws, 0) {
			t.Errorf("ws=%d: shared %v not better than separate %v",
				ws, cm.SharedHitRatio(ws, 0), cm.SeparateHitRatio(ws, 0))
		}
	}
}

func TestPressureReducesHits(t *testing.T) {
	cm := NewCacheModel()
	if cm.HitRatio(6<<20, 2<<20) >= cm.HitRatio(6<<20, 0) {
		t.Fatal("cache pressure did not reduce hit ratio")
	}
}

func TestZeroCopyAccounting(t *testing.T) {
	z := NewZeroCopy()
	if z.Capacity != 512<<20 {
		t.Fatalf("capacity %d, want 512MB", z.Capacity)
	}
	if err := z.Alloc(100 << 20); err != nil {
		t.Fatal(err)
	}
	if err := z.Alloc(413 << 20); err == nil {
		t.Fatal("413MB should not fit")
	}
	if err := z.Alloc(412 << 20); err != nil {
		t.Fatalf("412MB should still fit: %v", err)
	}
	z.Free(412 << 20)
	if err := z.Alloc(500 << 20); err == nil {
		t.Fatal("overflow not detected")
	}
	z.Free(100 << 20)
	if z.Used() != 0 {
		t.Fatalf("used %d after free", z.Used())
	}
	if err := z.Alloc(-1); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestPCIeDelayFormula(t *testing.T) {
	p := NewPCIe()
	// Paper: latency 0.015 ms + size / 3 GB/s.
	got := p.TransferNS(3 << 30)
	want := 0.015e6 + float64(int64(3<<30))/3.0
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("transfer 3GB: %v want %v", got, want)
	}
	if p.TransferNS(0) != 0 {
		t.Fatal("zero transfer should be free")
	}
}

func TestCopyNSLinear(t *testing.T) {
	if CopyNS(2000) != 2*CopyNS(1000) {
		t.Fatal("copy cost not linear")
	}
}

func TestSimBasicHitMiss(t *testing.T) {
	s := NewSim(1<<16, 64, 4)
	if !s.Access(0) {
		t.Fatal("cold access should miss")
	}
	if s.Access(8) {
		t.Fatal("same-line access should hit")
	}
	if s.MissRatio() != 0.5 {
		t.Fatalf("miss ratio %v", s.MissRatio())
	}
}

func TestSimLRUEviction(t *testing.T) {
	// 4-way set: access 5 conflicting lines, the first must be evicted.
	s := NewSim(64*4, 64, 4) // one set, 4 ways
	for i := uint64(0); i < 5; i++ {
		s.Access(i * 64)
	}
	if !s.Access(0) {
		t.Fatal("LRU victim not evicted")
	}
	if s.Access(64 * 4) {
		t.Fatal("recently used line evicted")
	}
}

func TestSimWorkingSetBehaviour(t *testing.T) {
	// Random accesses within a cache-resident set should mostly hit;
	// within a 10x working set they should mostly miss.
	s := NewL2Sim()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		s.Access(uint64(rng.Intn(1 << 20))) // 1MB
	}
	small := s.MissRatio()
	s.Reset()
	for i := 0; i < 200000; i++ {
		s.Access(uint64(rng.Intn(64 << 20))) // 64MB
	}
	large := s.MissRatio()
	if small > 0.2 {
		t.Errorf("resident working set miss ratio %v too high", small)
	}
	if large < 0.7 {
		t.Errorf("oversized working set miss ratio %v too low", large)
	}
}

func TestSimReset(t *testing.T) {
	s := NewL2Sim()
	s.Access(1)
	s.Reset()
	if s.Accesses() != 0 || s.Misses() != 0 {
		t.Fatal("reset did not clear counters")
	}
	if !s.Access(1) {
		t.Fatal("reset did not clear contents")
	}
}

func TestSimAnalyticalModelAgreement(t *testing.T) {
	// The analytical CacheModel should agree with the trace simulator
	// within a coarse band for uniform random accesses.
	cm := NewCacheModel()
	for _, ws := range []int64{1 << 20, 16 << 20} {
		s := NewL2Sim()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 300000; i++ {
			s.Access(uint64(rng.Int63n(ws)))
		}
		analytic := 1 - cm.HitRatio(ws, 0)
		measured := s.MissRatio()
		if math.Abs(analytic-measured) > 0.25 {
			t.Errorf("ws=%dMB: analytic miss %.2f vs simulated %.2f", ws>>20, analytic, measured)
		}
	}
}
