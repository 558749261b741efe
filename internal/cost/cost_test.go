package cost

import (
	"math"
	"testing"
	"testing/quick"

	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// fixedEnv gives every step the same memory environment.
func fixedEnv(e device.Env) sched.EnvFor {
	return func(sched.StepID, *device.Device) device.Env { return e }
}

func testModel() *Model {
	return &Model{
		CPU: device.APUCPU(),
		GPU: device.APUGPU(),
		Env: fixedEnv(device.UniformEnv(0.8)),
	}
}

// computeProfile: a pure-compute step (GPU-friendly).
func computeProfile() StepProfile {
	return StepProfile{ID: sched.B1, InstrPerItem: 60, SeqBytesPerItem: 8, DivFactor: 1}
}

// chaseProfile: a random-access, divergent step (CPU-friendly).
func chaseProfile() StepProfile {
	p := StepProfile{ID: sched.B3, InstrPerItem: 20, SeqBytesPerItem: 12, DivFactor: 2.8}
	p.RandPerItem[device.RegionHashTable] = 1.6
	return p
}

func TestEstimateMonotoneDominance(t *testing.T) {
	// Ratio 0 (all GPU) of a compute step must beat ratio 1 (all CPU).
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile()}}
	gpu := m.EstimateNS(sp, 1<<20, sched.Ratios{0})
	cpu := m.EstimateNS(sp, 1<<20, sched.Ratios{1})
	if gpu >= cpu {
		t.Fatalf("compute step: GPU %v not faster than CPU %v", gpu, cpu)
	}
}

func TestDivergenceSteersChaseStepToCPU(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{chaseProfile()}}
	r, _ := m.OptimizeDD(sp, 1<<20, 0.05)
	if r < 0.3 {
		t.Fatalf("divergent chase step should lean CPU, got ratio %v", r)
	}
}

func TestEstimateAgreesWithManualEq3(t *testing.T) {
	// Single step, CPU only: T = (instr+overhead)/throughput + seq + rand.
	m := testModel()
	p := computeProfile()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{p}}
	items := 1 << 20
	est, err := m.Estimate(sp, items, sched.Ratios{1})
	if err != nil {
		t.Fatal(err)
	}
	cpu := device.APUCPU()
	want := (p.InstrPerItem+float64(cpu.PerItemInstr))*float64(items)/cpu.InstrThroughput() +
		p.SeqBytesPerItem*float64(items)/cpu.BandwidthGBs + cpu.LaunchNS
	if math.Abs(est.CPUNS-want)/want > 1e-9 {
		t.Fatalf("Eq.3 mismatch: %v want %v", est.CPUNS, want)
	}
}

func TestEstimateNSMatchesEstimate(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile(), chaseProfile()}}
	f := func(r0, r1 float64) bool {
		rr := sched.Ratios{frac(r0), frac(r1)}
		e, err := m.Estimate(sp, 100000, rr)
		if err != nil {
			return false
		}
		return math.Abs(e.TotalNS-m.EstimateNS(sp, 100000, rr)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func frac(x float64) float64 {
	x = math.Abs(x)
	return x - math.Floor(x)
}

func TestOptimizePLNeverWorseThanDDOrOL(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{
		computeProfile(), chaseProfile(), computeProfile(), chaseProfile(),
	}}
	_, pl := m.OptimizePL(sp, 1<<20, 0.1)
	_, dd := m.OptimizeDD(sp, 1<<20, 0.1)
	_, ol := m.OptimizeOL(sp, 1<<20)
	if pl > dd+1e-6 || pl > ol+1e-6 {
		t.Fatalf("PL (%v) worse than DD (%v) or OL (%v): impossible, they are special cases", pl, dd, ol)
	}
}

func TestOptimizePLRefinedCloseToFullGrid(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{
		computeProfile(), chaseProfile(), chaseProfile(),
	}}
	_, full := m.OptimizePL(sp, 1<<20, 0.05)
	_, refined := m.OptimizePLRefined(sp, 1<<20, 0.05)
	if refined > full*1.05 {
		t.Fatalf("refined search %v much worse than full grid %v", refined, full)
	}
}

func TestOptimizeOLPicksFasterDevicePerStep(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile(), chaseProfile()}}
	ratios, _ := m.OptimizeOL(sp, 1<<20)
	if ratios[0] != 0 {
		t.Fatalf("compute step should offload to GPU, ratio %v", ratios[0])
	}
	for _, r := range ratios {
		if r != 0 && r != 1 {
			t.Fatalf("OL ratio %v not in {0,1}", r)
		}
	}
}

func TestMonteCarloSortedAndBounded(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile(), chaseProfile()}}
	samples := m.MonteCarlo(sp, 1<<20, 200, 7)
	if len(samples) != 200 {
		t.Fatalf("samples %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].NS < samples[i-1].NS {
			t.Fatal("samples not sorted")
		}
	}
	// The optimizer must be at least as good as the best random sample.
	_, best := m.OptimizePLRefined(sp, 1<<20, 0.02)
	if best > samples[0].NS*1.02 {
		t.Fatalf("optimized %v worse than best Monte Carlo %v", best, samples[0].NS)
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile()}}
	a := m.MonteCarlo(sp, 1<<10, 50, 3)
	b := m.MonteCarlo(sp, 1<<10, 50, 3)
	for i := range a {
		if a[i].NS != b[i].NS {
			t.Fatal("Monte Carlo not deterministic under fixed seed")
		}
	}
}

func TestProfileResultDividesByItems(t *testing.T) {
	var res sched.Result
	var st sched.StepResult
	st.ID = sched.P3
	st.CPUAcct = device.Acct{Items: 500, Instr: 5000, SeqBytes: 4000}
	st.CPUAcct.Rand[device.RegionHashTable] = 750
	st.GPUAcct = device.Acct{Items: 500, Instr: 5000, DivWork: 500, DivMaxWork: 1500}
	res.Steps = []sched.StepResult{st}
	sp := ProfileResult(res, 1000)
	p := sp.Steps[0]
	if p.InstrPerItem != 10 || p.SeqBytesPerItem != 4 {
		t.Fatalf("per-item division wrong: %+v", p)
	}
	if p.RandPerItem[device.RegionHashTable] != 0.75 {
		t.Fatalf("rand per item %v", p.RandPerItem[device.RegionHashTable])
	}
	if p.DivFactor != 3 {
		t.Fatalf("div factor %v, want 3", p.DivFactor)
	}
}

func TestEstimateValidatesRatios(t *testing.T) {
	m := testModel()
	sp := SeriesProfile{Name: "s", Steps: []StepProfile{computeProfile()}}
	if _, err := m.Estimate(sp, 10, sched.Ratios{0.5, 0.5}); err == nil {
		t.Fatal("ratio count mismatch accepted")
	}
	if !math.IsInf(m.EstimateNS(sp, 10, sched.Ratios{}), 1) {
		t.Fatal("EstimateNS should return +Inf on mismatch")
	}
}

func TestGridValues(t *testing.T) {
	vs := gridValues(nil, 0.25)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(vs) != len(want) {
		t.Fatalf("grid %v", vs)
	}
	for i := range want {
		if math.Abs(vs[i]-want[i]) > 1e-9 {
			t.Fatalf("grid %v", vs)
		}
	}
	// Degenerate δ falls back to the default.
	if len(gridValues(nil, 0)) != 51 {
		t.Fatalf("default grid size %d, want 51", len(gridValues(nil, 0)))
	}
}
