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
	// Per-step buffers reused by EstimateNS, the refined search and the
	// exhaustive search's bound.
	cpuScratch, gpuScratch []float64
	search                 search
}

// newDevPair returns the model's device handles, rebuilt only when either
// profile has changed since they were made: EstimateNS is called per random
// sample by MonteCarlo and a few times per plan candidate, and a search
// prices every step on both of them per table. A Model carries scratch and
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

// stepPrice is what one step's time on one device owes to everything but
// its item count: the Eq. 3 operands and the calibrated memory costs,
// derived once per (step, device) so that a search fills a table row by
// at(items) alone instead of re-reading both profiles and the environment
// per grid value.
type stepPrice struct {
	instr      float64 // instructions per item, the device's bookkeeping included
	throughput float64 // instructions per ns
	seq        float64 // streamed bytes per item
	bandwidth  float64
	// rand[reg] is the random accesses per item to region reg, weight[reg]
	// their cost at the environment's clamped hit ratio.
	rand, weight [device.NumRegions]float64
	// div is the step's SIMD divergence on the GPU; 0 where it stretches
	// nothing (on the CPU, or at a factor ≤ 1).
	div    float64
	launch float64
}

// price derives the step's invariants on one device under the model's
// current environment.
func (m *Model) price(p *StepProfile, dp *device.Profile, dev *device.Device) stepPrice {
	c := stepPrice{
		instr:      p.InstrPerItem + float64(dp.PerItemInstr),
		throughput: dp.InstrThroughput(),
		seq:        p.SeqBytesPerItem,
		bandwidth:  dp.BandwidthGBs,
		rand:       p.RandPerItem,
		launch:     dp.LaunchNS,
	}
	env := m.Env(p.ID, dev)
	for reg, hit := range env.HitRatio {
		if hit < 0 {
			hit = 0
		} else if hit > 1 {
			hit = 1
		}
		c.weight[reg] = float64(hit*dp.RandHitNS) + float64((1-hit)*dp.RandMissNS)
	}
	if dp.Kind == device.GPU && p.DivFactor > 1 {
		c.div = p.DivFactor
	}
	return c
}

// at estimates the step's time over items: computation (Eq. 3) plus
// calibrated memory cost. Atomics are excluded by design.
func (c *stepPrice) at(items float64) float64 {
	if items <= 0 {
		return 0
	}
	comp := c.instr * items / c.throughput
	seq := c.seq * items / c.bandwidth
	var rnd float64
	for reg, per := range c.rand {
		cnt := per * items
		if cnt == 0 {
			continue
		}
		rnd += float64(cnt * c.weight[reg])
	}
	if c.div > 0 {
		// SIMD lockstep stretches compute and latency-bound accesses.
		comp *= c.div
		rnd *= c.div
	}
	return comp + seq + rnd + c.launch
}

// stepTimes fills cpu and gpu with each step's time at its ratio of items.
func (m *Model) stepTimes(sp SeriesProfile, items int, ratios sched.Ratios, cpu, gpu []float64) {
	cpuDev, gpuDev := newDevPair(m)
	x := float64(items)
	for i := range sp.Steps {
		p := &sp.Steps[i]
		cp, gp := m.price(p, &m.CPU, cpuDev), m.price(p, &m.GPU, gpuDev)
		cpu[i], gpu[i] = cp.at(ratios[i]*x), gp.at((1-ratios[i])*x)
	}
}

// EstimateNS evaluates Eqs. 1–5 for the series profile over items tuples
// with the given per-step CPU ratios and returns the estimated total time;
// mismatched ratios estimate +Inf. It allocates nothing, for optimizer
// loops.
func (m *Model) EstimateNS(sp SeriesProfile, items int, ratios sched.Ratios) float64 {
	if len(ratios) != len(sp.Steps) {
		return math.Inf(1)
	}
	cpu, gpu := m.stepScratch(len(sp.Steps))
	m.stepTimes(sp, items, ratios, cpu, gpu)
	cpuTot, gpuTot := sched.DelayTotals(cpu, gpu, ratios)
	return math.Max(cpuTot, gpuTot)
}
