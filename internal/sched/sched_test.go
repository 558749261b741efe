package sched

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"apujoin/internal/device"
)

// fakeSeries builds a series whose kernels record coverage and report a
// fixed per-item instruction load.
func fakeSeries(items int, steps int, covered []map[int]int) Series {
	s := Series{Name: "fake", Items: items}
	for i := 0; i < steps; i++ {
		i := i
		s.Steps = append(s.Steps, Step{
			ID: StepID(i),
			Kernel: func(d *device.Device, lo, hi int) device.Acct {
				for j := lo; j < hi; j++ {
					covered[i][j]++
				}
				return device.Acct{Items: int64(hi - lo), Instr: int64(hi-lo) * 100}
			},
		})
	}
	return s
}

func newCoverage(steps, items int) []map[int]int {
	out := make([]map[int]int, steps)
	for i := range out {
		out[i] = make(map[int]int, items)
	}
	return out
}

func checkCoverage(t *testing.T, covered []map[int]int, items int) {
	t.Helper()
	for step, m := range covered {
		for j := 0; j < items; j++ {
			if m[j] != 1 {
				t.Fatalf("step %d item %d processed %d times", step, j, m[j])
			}
		}
	}
}

func TestRunProcessesEveryItemOncePerStep(t *testing.T) {
	f := func(r0, r1, r2 float64) bool {
		ratios := Ratios{clamp(r0), clamp(r1), clamp(r2)}
		cov := newCoverage(3, 1000)
		e := New(FixedEnv(device.UniformEnv(0.9)))
		_, err := e.Run(fakeSeries(1000, 3, cov), ratios)
		if err != nil {
			return false
		}
		for _, m := range cov {
			for j := 0; j < 1000; j++ {
				if m[j] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func clamp(x float64) float64 {
	x = math.Abs(x)
	return x - math.Floor(x)
}

func TestRunRejectsBadRatios(t *testing.T) {
	e := New(FixedEnv(device.UniformEnv(1)))
	cov := newCoverage(2, 10)
	if _, err := e.Run(fakeSeries(10, 2, cov), Ratios{0.5}); err == nil {
		t.Fatal("ratio count mismatch accepted")
	}
	if _, err := e.Run(fakeSeries(10, 2, cov), Ratios{0.5, 1.5}); err == nil {
		t.Fatal("out-of-range ratio accepted")
	}
}

func TestDelaysMatchPaperEquations(t *testing.T) {
	// Hand-computed example for Eq. 4: two steps, CPU ratio rises 0.2→0.8.
	cpu := []float64{10, 40}
	gpu := []float64{80, 20}
	ratios := Ratios{0.2, 0.8}
	_, _, dCPU, dGPU := Delays(cpu, gpu, ratios)
	// frac = (1-0.8)/(1-0.2) = 0.25 → D = (80 - 80×0.25) − (10+40) = 10.
	if math.Abs(dCPU[1]-10) > 1e-9 {
		t.Fatalf("Eq.4 delay = %v, want 10", dCPU[1])
	}
	if dGPU[1] != 0 {
		t.Fatalf("GPU delay should be zero, got %v", dGPU[1])
	}
}

func TestDelaysCase2(t *testing.T) {
	// Ratio falls 0.8→0.2: the GPU may stall on CPU-produced input (Eq. 5).
	cpu := []float64{80, 20}
	gpu := []float64{10, 40}
	ratios := Ratios{0.8, 0.2}
	_, _, dCPU, dGPU := Delays(cpu, gpu, ratios)
	// frac = (1-0.8)/(1-0.2) = 0.25 → D = 80 − (10 + 40 − 40×0.25) = 40.
	if math.Abs(dGPU[1]-40) > 1e-9 {
		t.Fatalf("Eq.5 delay = %v, want 40", dGPU[1])
	}
	if dCPU[1] != 0 {
		t.Fatalf("CPU delay should be zero, got %v", dCPU[1])
	}
}

func TestNoDelayWhenRatiosEqual(t *testing.T) {
	f := func(r float64, a, b uint16) bool {
		rr := clamp(r)
		cpu := []float64{float64(a), float64(b)}
		gpu := []float64{float64(b), float64(a)}
		_, _, dC, dG := Delays(cpu, gpu, Ratios{rr, rr})
		return dC[1] == 0 && dG[1] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDelayTotalsAgreesWithDelays(t *testing.T) {
	f := func(r0, r1, r2 float64, c0, c1, c2, g0, g1, g2 uint16) bool {
		ratios := Ratios{clamp(r0), clamp(r1), clamp(r2)}
		cpu := []float64{float64(c0), float64(c1), float64(c2)}
		gpu := []float64{float64(g0), float64(g1), float64(g2)}
		c1t, g1t, _, _ := Delays(cpu, gpu, ratios)
		c2t, g2t := DelayTotals(cpu, gpu, ratios)
		return math.Abs(c1t-c2t) < 1e-6 && math.Abs(g1t-g2t) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntermediateResultsFromRatioDifference(t *testing.T) {
	e := New(FixedEnv(device.UniformEnv(1)))
	cov := newCoverage(2, 1000)
	s := fakeSeries(1000, 2, cov)
	s.Steps[0].OutBytesPerItem = 8
	res, err := e.Run(s, Ratios{0.1, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Steps[1]
	if st.IntermediateItems != 500 {
		t.Fatalf("intermediate items %d, want 500", st.IntermediateItems)
	}
	if st.IntermediateBytes != 4000 {
		t.Fatalf("intermediate bytes %d, want 4000", st.IntermediateBytes)
	}
}

func TestPCIeChargedOnlyWhenConfigured(t *testing.T) {
	cov := newCoverage(2, 100)
	e := New(FixedEnv(device.UniformEnv(1)))
	s := fakeSeries(100, 2, cov)
	s.Steps[0].OutBytesPerItem = 8
	res, _ := e.Run(s, Ratios{0, 1})
	if res.TransferNS != 0 {
		t.Fatal("coupled run charged PCI-e time")
	}
}

func TestUniformRatios(t *testing.T) {
	u := Uniform(0.3, 4)
	if len(u) != 4 {
		t.Fatal("wrong length")
	}
	for _, v := range u {
		if v != 0.3 {
			t.Fatal("not uniform")
		}
	}
}

func TestBasicUnitCoversAllItems(t *testing.T) {
	cov := newCoverage(3, 5000)
	e := New(FixedEnv(device.UniformEnv(0.9)))
	res, err := e.RunBasicUnit(fakeSeries(5000, 3, cov), 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverage(t, cov, 5000)
	if res.CPUChunks == 0 || res.GPUChunks == 0 {
		t.Fatalf("both devices should receive chunks: %+v", res)
	}
	if res.CPUShare <= 0 || res.CPUShare >= 1 {
		t.Fatalf("CPU share %v out of (0,1)", res.CPUShare)
	}
	if res.TotalNS < res.CPUNS || res.TotalNS < res.GPUNS {
		t.Fatal("total below device time")
	}
}

func TestGroupOrderIsPermutationSortedByWork(t *testing.T) {
	work := []int32{5, 1, 9, 1, 5, 9, 2, 0}
	order := GroupOrder(work, 0, len(work), 4)
	seen := map[int32]bool{}
	prevLevel := -1
	for _, i := range order {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
		level := int(int64(work[i]) * 4 / 10)
		if level < prevLevel {
			t.Fatalf("order not grouped by workload level")
		}
		prevLevel = level
	}
	if len(seen) != len(work) {
		t.Fatal("not a permutation")
	}
}

func TestGroupOrderSubrange(t *testing.T) {
	work := []int32{9, 1, 2, 3, 4, 9}
	order := GroupOrder(work, 1, 5, 2)
	if len(order) != 4 {
		t.Fatalf("order length %d, want 4", len(order))
	}
	for _, i := range order {
		if i < 1 || i >= 5 {
			t.Fatalf("index %d escapes [1,5)", i)
		}
	}
}

func TestGroupOrderEmptyAndSingleton(t *testing.T) {
	if GroupOrder(nil, 0, 0, 4) != nil {
		t.Fatal("empty range should return nil")
	}
	o := GroupOrder([]int32{7}, 0, 1, 4)
	if len(o) != 1 || o[0] != 0 {
		t.Fatalf("singleton order %v", o)
	}
}

// TestParSetupRunsOncePerParallelStep: a step's ParSetup runs exactly once,
// before either device's ParKernel share, on every Run over a pool — and
// never where the single-stream Kernel executes instead (no pool, BasicUnit).
func TestParSetupRunsOncePerParallelStep(t *testing.T) {
	var log []string
	series := Series{Name: "setup", Items: 100, Steps: []Step{{
		ID: B3,
		Kernel: func(d *device.Device, lo, hi int) device.Acct {
			log = append(log, "kernel")
			return device.Acct{Items: int64(hi - lo)}
		},
		ParSetup: func(*Pool) { log = append(log, "setup") },
		ParKernel: func(d *device.Device, lo, hi int, p *Pool) device.Acct {
			log = append(log, "par")
			return device.Acct{Items: int64(hi - lo)}
		},
	}}}

	e := New(FixedEnv(device.UniformEnv(0.9)))
	e.Pool = NewPool(2)
	defer e.Pool.Close()
	for run := 0; run < 2; run++ {
		log = nil
		if _, err := e.Run(series, Ratios{0.5}); err != nil {
			t.Fatal(err)
		}
		if want := []string{"setup", "par", "par"}; !slices.Equal(log, want) {
			t.Fatalf("pooled run %d: %v, want %v", run, log, want)
		}
	}

	log = nil
	if _, err := e.RunBasicUnit(series, 50, 50); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(log, "setup") || slices.Contains(log, "par") {
		t.Fatalf("BasicUnit took the parallel path: %v", log)
	}

	log = nil
	serial := New(FixedEnv(device.UniformEnv(0.9)))
	if _, err := serial.Run(series, Ratios{0.5}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"kernel", "kernel"}; !slices.Equal(log, want) {
		t.Fatalf("serial run: %v, want %v", log, want)
	}
}
