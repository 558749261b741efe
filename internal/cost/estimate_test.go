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
	n := len(sp.Steps)
	cpu := make([]float64, n)
	gpu := make([]float64, n)
	m.stepTimes(sp, items, ratios, cpu, gpu)
	cpuTot, gpuTot, dc, dg := sched.Delays(cpu, gpu, ratios)
	return Estimate{
		CPUNS: cpuTot, GPUNS: gpuTot,
		TotalNS:   math.Max(cpuTot, gpuTot),
		StepCPUNS: cpu, StepGPUNS: gpu,
		DelayCPUNS: dc, DelayGPUNS: dg,
	}, nil
}
