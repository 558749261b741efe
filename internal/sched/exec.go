package sched

import (
	"context"
	"fmt"

	"apujoin/internal/device"
	"apujoin/internal/mem"
)

// Exec runs step series under a co-processing scheme on a pair of devices.
type Exec struct {
	CPU *device.Device
	GPU *device.Device
	Env EnvFor
	// PCIe, when non-nil, emulates the discrete architecture: intermediate
	// results moved between devices by ratio changes, and phase inputs and
	// outputs, are charged bus transfers (paper Sec. 5.1).
	PCIe *mem.PCIe
	// Pool, when non-nil, executes steps that provide a ParKernel across
	// the pool's workers. The simulated timings are identical with and
	// without a pool of any size for such steps only when the kernels keep
	// their decomposition worker-independent; the stock kernels do.
	Pool *Pool
	// Steps, when it has room for a series' steps, is where Run records
	// them: the Result it returns then shares the buffer, valid until the
	// next Run. Without one Run allocates the Result's steps.
	Steps []StepResult
	// Ctx, when non-nil, is checked at step boundaries: a cancelled context
	// aborts the series with the context's error. Steps are never torn
	// mid-kernel, so data structures stay consistent up to the completed
	// step.
	Ctx context.Context
}

// cancelled returns the context's error if the executor's context is done.
func (e *Exec) cancelled() error {
	if e.Ctx == nil {
		return nil
	}
	select {
	case <-e.Ctx.Done():
		return e.Ctx.Err()
	default:
		return nil
	}
}

// runKernel dispatches one device's share of a step, through the parallel
// kernel when both a pool and a ParKernel are available.
func (e *Exec) runKernel(st Step, d *device.Device, lo, hi int) device.Acct {
	if e.Pool != nil && st.ParKernel != nil {
		return st.ParKernel(d, lo, hi, e.Pool)
	}
	return st.Kernel(d, lo, hi)
}

// Run executes the series with the given per-step CPU ratios (PL semantics;
// pass Uniform(r, n) for DD and 0/1 ratios for OL) and returns the timing
// result. The kernels perform the real work: after Run returns, the data
// structures the kernels touch are fully updated regardless of the ratios.
func (e *Exec) Run(s Series, ratios Ratios) (Result, error) {
	if err := ratios.Validate(len(s.Steps)); err != nil {
		return Result{}, fmt.Errorf("series %s: %w", s.Name, err)
	}
	res := Result{Name: s.Name}
	if cap(e.Steps) >= len(s.Steps) {
		res.Steps = e.Steps[:len(s.Steps)] // every step is written below
	} else {
		res.Steps = make([]StepResult, len(s.Steps))
	}

	for i, st := range s.Steps {
		if err := e.cancelled(); err != nil {
			return Result{}, fmt.Errorf("series %s: %w", s.Name, err)
		}
		r := ratios[i]
		split := int(r * float64(s.Items))
		if split < 0 {
			split = 0
		}
		if split > s.Items {
			split = s.Items
		}

		if e.Pool != nil && st.ParKernel != nil && st.ParSetup != nil {
			st.ParSetup(e.Pool)
		}
		var sr StepResult
		sr.ID = st.ID
		sr.Ratio = r
		if split > 0 {
			sr.CPUAcct = e.runKernel(st, e.CPU, 0, split)
			sr.CPUNS = e.CPU.TimeNS(sr.CPUAcct, e.Env(st.ID, e.CPU))
		}
		if split < s.Items {
			sr.GPUAcct = e.runKernel(st, e.GPU, split, s.Items)
			sr.GPUNS = e.GPU.TimeNS(sr.GPUAcct, e.Env(st.ID, e.GPU))
		}

		// Intermediate results crossing devices (paper Sec. 3.2: the
		// workload-ratio difference between consecutive steps determines
		// the amount of intermediate results).
		if i > 0 {
			d := ratios[i] - ratios[i-1]
			if d < 0 {
				d = -d
			}
			sr.IntermediateItems = int64(d * float64(s.Items))
			sr.IntermediateBytes = sr.IntermediateItems * s.Steps[i-1].OutBytesPerItem
			if e.PCIe != nil && sr.IntermediateBytes > 0 {
				t := e.PCIe.TransferNS(sr.IntermediateBytes)
				res.TransferNS += t
			}
		}

		res.Steps[i] = sr
		if st.After != nil {
			st.After()
		}
	}

	res.CPUNS, res.GPUNS = applyDelays(res.Steps)
	res.TotalNS = maxf(res.CPUNS, res.GPUNS) + res.TransferNS
	return res, nil
}

// applyDelays fills in the pipelined execution delays of an executed
// series' steps and returns the per-device totals: Delays over the steps in
// place.
func applyDelays(steps []StepResult) (cpuTot, gpuTot float64) {
	var cpuSum, gpuSum float64
	for i := range steps {
		st := &steps[i]
		rp, gpuPrev := st.Ratio, 0.0
		if i > 0 {
			rp, gpuPrev = steps[i-1].Ratio, steps[i-1].GPUNS
		}
		st.DelayCPUNS, st.DelayGPUNS = DelayStep(cpuSum, gpuSum, rp, st.Ratio, gpuPrev, st.CPUNS, st.GPUNS)
		cpuSum += st.CPUNS + st.DelayCPUNS
		gpuSum += st.GPUNS + st.DelayGPUNS
	}
	return cpuSum, gpuSum
}

// Delays computes the pipelined execution delays of the paper's Eqs. 4 and 5
// and the per-device totals of Eq. 2, given raw per-step times and ratios.
//
// Case 1 (r_i > r_{i-1}): the CPU waits for GPU-produced input,
//
//	D_i^CPU = (Σ_{j<i} T_j^GPU − T_{i-1}^GPU × (1−r_i)/(1−r_{i-1})) − Σ_{j≤i} T_j^CPU
//
// Case 2 (r_i < r_{i-1}) mirrors it for the GPU (Eq. 5: the subtracted term
// is the GPU's own step-i time overlapping the CPU's step-(i-1) production).
// Negative delays clamp to 0. The cost model (internal/cost) evaluates the
// same equations over estimated step times.
func Delays(cpuNS, gpuNS []float64, ratios Ratios) (cpuTot, gpuTot float64, dCPU, dGPU []float64) {
	n := len(ratios)
	dCPU = make([]float64, n)
	dGPU = make([]float64, n)
	// Prefix sums of step times with preceding stalls folded in, as the
	// equations accumulate T_j which include earlier delays.
	var cpuSum, gpuSum float64
	for i, ri := range ratios {
		rp, gpuPrev := ri, 0.0
		if i > 0 {
			rp, gpuPrev = ratios[i-1], gpuNS[i-1]
		}
		dCPU[i], dGPU[i] = DelayStep(cpuSum, gpuSum, rp, ri, gpuPrev, cpuNS[i], gpuNS[i])
		cpuSum += cpuNS[i] + dCPU[i]
		gpuSum += gpuNS[i] + dGPU[i]
	}
	return cpuSum, gpuSum, dCPU, dGPU
}

// DelayTotals is Delays without the per-step delay slices, allocation-free
// for the cost model's EstimateNS.
func DelayTotals(cpuNS, gpuNS []float64, ratios Ratios) (cpuTot, gpuTot float64) {
	var cpuSum, gpuSum float64
	for i, ri := range ratios {
		rp, gpuPrev := ri, 0.0
		if i > 0 {
			rp, gpuPrev = ratios[i-1], gpuNS[i-1]
		}
		dC, dG := DelayStep(cpuSum, gpuSum, rp, ri, gpuPrev, cpuNS[i], gpuNS[i])
		cpuSum += cpuNS[i] + dC
		gpuSum += gpuNS[i] + dG
	}
	return cpuSum, gpuSum
}

// DelayStep is one step of the Eq. 4/5 recurrence: the stall each device
// incurs entering a step with ratio ri, raw times cpuNS and gpuNS, after a
// step with ratio rp and raw GPU time gpuPrev, given the per-device prefix
// sums so far (cpuSum, gpuSum). At most one of the two is non-zero. A
// series' first step has no predecessor and is passed its own ratio as rp,
// which selects neither case.
//
// Delays, DelayTotals, the executor (applyDelays) and the cost model's
// ratio search (which folds it down its search tree) all go through this
// one body, so an estimate is the same float operations in the same order
// wherever it is computed. Its shape —
// the ratio helper, the single clamp at the end — keeps it under the
// compiler's inlining budget; `go build -gcflags=-m ./internal/sched` says
// so.
func DelayStep(cpuSum, gpuSum, rp, ri, gpuPrev, cpuNS, gpuNS float64) (dCPU, dGPU float64) {
	if ri > rp {
		dCPU = (gpuSum - float64(gpuPrev*shareLeft(ri, rp))) - (cpuSum + cpuNS)
	} else if ri < rp {
		dGPU = cpuSum - (gpuSum + gpuNS - float64(gpuNS*shareLeft(rp, ri)))
	}
	// Negative (and NaN) delays clamp to 0; the untouched one is 0 already.
	if dCPU > 0 || dGPU > 0 {
		return dCPU, dGPU
	}
	return 0, 0
}

// shareLeft is (1−hi)/(1−lo), the fraction of the lower-ratio step's GPU
// share that the higher-ratio step still leaves on the GPU; 0 when the
// lower ratio already left the GPU nothing.
func shareLeft(hi, lo float64) float64 {
	if lo < 1 {
		return (1 - hi) / (1 - lo)
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
