package sched

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
)

// TestPoolDispatchAllocations: on a pool of 2, a parallel ForEach, MapRange
// or MapShards allocates nothing once the pool has a free batch, and
// Exec.Run allocates the steps of its Result and nothing else. The
// collector is off, so that no allocation hides behind a collection.
func TestPoolDispatchAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops recycled objects at random; the counts hold in plain builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Int64
	each := func(i int) { sink.Add(int64(i)) }
	morsel := func(lo, hi int) device.Acct { return device.Acct{Items: int64(hi - lo)} }
	shard := func(k int) device.Acct { return device.Acct{Items: int64(k)} }
	exec := apuExec(0.5)
	exec.Pool = p
	series := Series{Name: "alloc", Items: 4 * MorselItems, Steps: []Step{
		{ID: B1, Kernel: morselKernel, ParKernel: func(d *device.Device, lo, hi int, p *Pool) device.Acct { return p.MapRange(lo, hi, morsel) }},
		{ID: B2, Kernel: morselKernel, ParKernel: func(d *device.Device, lo, hi int, p *Pool) device.Acct { return p.MapShards(DefaultShards, shard) }},
	}}
	ratios := Ratios{0.25, 0.75}
	for _, c := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		{"ForEach", 0, func() { p.ForEach(64, each) }},
		{"MapRange", 0, func() { p.MapRange(0, 5*MorselItems+3, morsel) }},
		{"MapShards", 0, func() { p.MapShards(DefaultShards, shard) }},
		{"Exec.Run", 1, func() {
			if _, err := exec.Run(series, ratios); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		c.call()
		n := testing.AllocsPerRun(100, c.call)
		if n > c.ceiling {
			t.Errorf("%s on a pool of 2 allocates %v times a call, above the ceiling of %v", c.name, n, c.ceiling)
		}
		t.Logf("%s on a pool of 2 allocates %v times a call (ceiling %v)", c.name, n, c.ceiling)
	}
}

func morselKernel(d *device.Device, lo, hi int) device.Acct {
	return device.Acct{Items: int64(hi - lo)}
}

// TestStaleOffersClaimNothing: help offers that wait in the queue while
// their batches complete without the resident worker reach it only after
// many later batches have run; a batch is reused only once its last offer
// is spent, so every piece of every batch runs exactly once (and the race
// detector sees no batch reset under a worker that still reads it).
func TestStaleOffersClaimNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	// Hold the resident worker: a batch of two pieces that block, one of
	// which only the worker can have claimed while the other blocks its
	// submitter.
	release, started := make(chan struct{}), make(chan struct{}, 2)
	var held sync.WaitGroup
	held.Add(1)
	go func() {
		defer held.Done()
		p.ForEach(2, func(int) { started <- struct{}{}; <-release })
	}()
	<-started
	<-started
	run := func(round int) {
		const n = 37
		var hits [n]int32
		p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		sum := p.MapRange(0, 3*MorselItems, func(lo, hi int) device.Acct { return device.Acct{Items: int64(hi - lo)} })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: piece %d ran %d times", round, i, h)
			}
		}
		if sum.Items != 3*MorselItems {
			t.Fatalf("round %d: MapRange folded %d items, want %d", round, sum.Items, 3*MorselItems)
		}
	}
	for round := range 40 { // more offers than the queue holds
		run(round)
	}
	close(release)
	held.Wait()
	for round := 40; round < 400; round++ {
		run(round)
	}
}

// TestRunDelaysAreDelays: the delays and device totals Exec.Run computes in
// place over its steps are, bit for bit, Delays over the steps' raw times
// and ratios.
func TestRunDelaysAreDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	exec := apuExec(0.7)
	for c := 0; c < 200; c++ {
		steps := 1 + rng.Intn(5)
		s := Series{Name: "delays", Items: 1 + rng.Intn(1<<12)}
		ratios := make(Ratios, steps)
		for i := range ratios {
			ratios[i] = float64(rng.Intn(11)) / 10
			work := int64(1 + rng.Intn(400))
			s.Steps = append(s.Steps, Step{ID: StepID(i), Kernel: func(d *device.Device, lo, hi int) device.Acct {
				return device.Acct{Items: int64(hi - lo), Instr: int64(hi-lo) * work}
			}})
		}
		res, err := exec.Run(s, ratios)
		if err != nil {
			t.Fatal(err)
		}
		cpu, gpu := make([]float64, steps), make([]float64, steps)
		for i, st := range res.Steps {
			cpu[i], gpu[i] = st.CPUNS, st.GPUNS
		}
		cpuTot, gpuTot, dCPU, dGPU := Delays(cpu, gpu, ratios)
		same := math.Float64bits(res.CPUNS) == math.Float64bits(cpuTot) && math.Float64bits(res.GPUNS) == math.Float64bits(gpuTot)
		for i, st := range res.Steps {
			same = same && math.Float64bits(st.DelayCPUNS) == math.Float64bits(dCPU[i]) && math.Float64bits(st.DelayGPUNS) == math.Float64bits(dGPU[i])
		}
		if !same {
			t.Fatalf("ratios %v: Run's delays %+v differ from Delays' %v %v (totals %v %v)", ratios, res.Steps, dCPU, dGPU, cpuTot, gpuTot)
		}
	}
}

// BenchmarkPoolDispatch is the dispatch rung of the benchmark ladder: an
// empty kernel over range morsels (MapRange, ns per morsel) and an empty
// ForEach of as many pieces, on pools of 1 and 2, with the allocations
// each call makes — 0 once the pool has a free batch.
func BenchmarkPoolDispatch(b *testing.B) {
	const morsels = 64
	morsel := func(lo, hi int) device.Acct { return device.Acct{Items: int64(hi - lo)} }
	each := func(int) {}
	for _, workers := range []int{1, 2} {
		p := NewPool(workers)
		for _, c := range []struct {
			name string
			call func()
		}{
			{"MapRange", func() { p.MapRange(0, morsels*MorselItems, morsel) }},
			{"ForEach", func() { p.ForEach(morsels, each) }},
		} {
			b.Run(fmt.Sprintf("%s/pool=%d", c.name, workers), func(b *testing.B) {
				for range 16 { // stock the free list, as a resident pool's is
					c.call()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					c.call()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*morsels), "ns/morsel")
			})
		}
		p.Close()
	}
}
