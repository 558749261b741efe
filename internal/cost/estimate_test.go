package cost

import (
	"fmt"
	"math"

	"apujoin/internal/sched"
)

// Estimate is the model's prediction for a series at given ratios.
type Estimate struct {
	CPUNS, GPUNS, TotalNS  float64
	StepCPUNS, StepGPUNS   []float64
	DelayCPUNS, DelayGPUNS []float64
}

// Estimate is EstimateNS with the per-step and per-device breakdown, which
// the tests check term by term; it validates the ratios.
func (m *Model) Estimate(sp SeriesProfile, items int, ratios sched.Ratios) (Estimate, error) {
	if err := ratios.Validate(len(sp.Steps)); err != nil {
		return Estimate{}, fmt.Errorf("cost: series %s: %w", sp.Name, err)
	}
	cpuDev, gpuDev := newDevPair(m)
	n := len(sp.Steps)
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	for i, p := range sp.Steps {
		x := float64(items)
		cpu[i] = m.stepTime(p, m.CPU, cpuDev, ratios[i]*x)
		gpu[i] = m.stepTime(p, m.GPU, gpuDev, (1-ratios[i])*x)
	}
	cpuTot, gpuTot, dc, dg := sched.Delays(cpu, gpu, ratios)
	return Estimate{
		CPUNS: cpuTot, GPUNS: gpuTot,
		TotalNS:   math.Max(cpuTot, gpuTot),
		StepCPUNS: cpu, StepGPUNS: gpu,
		DelayCPUNS: dc, DelayGPUNS: dg,
	}, nil
}
