// Package cost implements the paper's performance model (Sec. 4): an
// abstract model for pipelined co-processing over a step series,
// instantiated per algorithm by profiling, and used to pick the workload
// ratios that minimize estimated elapsed time.
//
// The abstract model estimates, for each step i with CPU ratio r_i over x_i
// items (Table 2 notation):
//
//	T^i_XPU = C^i_XPU + M^i_XPU + D^i_XPU          (Eq. 2)
//	C^i_XPU = #I^i_XPU × r_i × x_i / IPC_XPU        (Eq. 3)
//	M^i_XPU = calibrated memory unit cost × r_i × x_i
//	D^i_XPU from the pipelined-delay equations      (Eqs. 4, 5)
//	T = max(T_CPU, T_GPU)                           (Eq. 1)
//
// Exactly like the paper's model, it deliberately excludes lock contention
// and SIMD divergence; the gap between its estimate and the detailed
// simulation is the "lock overhead" the paper back-derives in Sec. 5.4.
package cost

import (
	"math"

	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// StepProfile holds the calibrated per-item unit costs of one step — the
// model inputs the paper obtains from AMD CodeXL/APP Profiler (instruction
// counts) and the Manegold/He calibration method (memory unit costs).
// Workload-dependent steps (b3/p3: cost ∝ key-list length; p4: ∝ matches)
// are captured the paper's way: unit cost per key search × average number
// of keys, folded into the per-item averages during profiling.
type StepProfile struct {
	ID              sched.StepID
	InstrPerItem    float64
	SeqBytesPerItem float64
	RandPerItem     [device.NumRegions]float64
	OutBytesPerItem int64
	// DivFactor is the profiled SIMD divergence of the step on the GPU
	// (≥1). The paper's per-device calibration absorbs divergence into the
	// per-step unit costs — only lock contention is excluded from the
	// model — so the profile carries it too.
	DivFactor float64
}

// SeriesProfile is the calibrated profile of a whole step series.
type SeriesProfile struct {
	Name  string
	Steps []StepProfile
}

// ProfileResult derives a SeriesProfile from an executed series: total
// accounting divided by items profiled. This mirrors feeding profiler
// output into the model; the pilot run plays the role of the profiler.
func ProfileResult(r sched.Result, items int) SeriesProfile {
	sp := SeriesProfile{Name: r.Name, Steps: make([]StepProfile, len(r.Steps))}
	if items <= 0 {
		return sp
	}
	n := float64(items)
	for i, st := range r.Steps {
		var a device.Acct
		a.Add(st.CPUAcct)
		a.Add(st.GPUAcct)
		p := StepProfile{ID: st.ID}
		p.InstrPerItem = float64(a.Instr) / n
		p.SeqBytesPerItem = float64(a.SeqBytes) / n
		for reg := device.Region(0); reg < device.NumRegions; reg++ {
			p.RandPerItem[reg] = float64(a.Rand[reg]) / n
		}
		p.DivFactor = st.GPUAcct.DivergenceFactor()
		if p.DivFactor < 1 {
			p.DivFactor = 1
		}
		sp.Steps[i] = p
	}
	return sp
}

// Model evaluates the abstract model for one series on a device pair.
type Model struct {
	CPU device.Profile
	GPU device.Profile
	// Env supplies the cache hit ratios per step, shared with the
	// execution simulator so both see the same memory environment.
	Env sched.EnvFor

	cpuDev, gpuDev *device.Device
	// Per-step time buffers reused by EstimateNS and the refined search.
	cpuScratch, gpuScratch []float64
	search                 search
}

// newDevPair returns the model's device handles, rebuilt only when either
// profile has changed since they were made: EstimateNS is called per random
// sample by MonteCarlo and a few times per plan candidate, and a search
// tabulates 2·n·|grid| step times through them. A Model carries scratch and
// is therefore used via pointer, by one goroutine at a time.
func newDevPair(m *Model) (*device.Device, *device.Device) {
	if m.cpuDev == nil || m.cpuDev.Profile != m.CPU || m.gpuDev.Profile != m.GPU {
		m.cpuDev = device.New(m.CPU)
		m.gpuDev = device.New(m.GPU)
	}
	return m.cpuDev, m.gpuDev
}

// stepScratch returns the model's two per-step time buffers cut to n steps.
func (m *Model) stepScratch(n int) (cpu, gpu []float64) {
	if cap(m.cpuScratch) < n {
		m.cpuScratch = make([]float64, n)
		m.gpuScratch = make([]float64, n)
	}
	return m.cpuScratch[:n], m.gpuScratch[:n]
}

// stepTime estimates one step's time on one device: computation (Eq. 3)
// plus calibrated memory cost. Atomics and divergence are excluded by
// design.
func (m *Model) stepTime(p StepProfile, dp device.Profile, dev *device.Device, items float64) float64 {
	if items <= 0 {
		return 0
	}
	instr := (p.InstrPerItem + float64(dp.PerItemInstr)) * items
	c := instr / dp.InstrThroughput()

	env := m.Env(p.ID, dev)
	seq := p.SeqBytesPerItem * items / dp.BandwidthGBs
	var rnd float64
	for reg := device.Region(0); reg < device.NumRegions; reg++ {
		cnt := p.RandPerItem[reg] * items
		if cnt == 0 {
			continue
		}
		hit := env.HitRatio[reg]
		if hit < 0 {
			hit = 0
		} else if hit > 1 {
			hit = 1
		}
		rnd += cnt * (hit*dp.RandHitNS + (1-hit)*dp.RandMissNS)
	}
	if dp.Kind == device.GPU && p.DivFactor > 1 {
		// SIMD lockstep stretches compute and latency-bound accesses.
		c *= p.DivFactor
		rnd *= p.DivFactor
	}
	return c + seq + rnd + dp.LaunchNS
}

// EstimateNS evaluates Eqs. 1–5 for the series profile over items tuples
// with the given per-step CPU ratios and returns the estimated total time;
// mismatched ratios estimate +Inf. It allocates nothing, for optimizer
// loops.
func (m *Model) EstimateNS(sp SeriesProfile, items int, ratios sched.Ratios) float64 {
	if len(ratios) != len(sp.Steps) {
		return math.Inf(1)
	}
	cpuDev, gpuDev := newDevPair(m)
	cpu, gpu := m.stepScratch(len(sp.Steps))
	for i, p := range sp.Steps {
		x := float64(items)
		cpu[i] = m.stepTime(p, m.CPU, cpuDev, ratios[i]*x)
		gpu[i] = m.stepTime(p, m.GPU, gpuDev, (1-ratios[i])*x)
	}
	cpuTot, gpuTot := sched.DelayTotals(cpu, gpu, ratios)
	return math.Max(cpuTot, gpuTot)
}
