package sched

import (
	"math"
	"math/rand"
	"testing"
)

// refDelays is Delays as it stood before the recurrence became DelayStep,
// verbatim: the loop the executor's simulated clock was recorded with.
func refDelays(cpuNS, gpuNS []float64, ratios Ratios) (cpuTot, gpuTot float64, dCPU, dGPU []float64) {
	n := len(ratios)
	dCPU = make([]float64, n)
	dGPU = make([]float64, n)
	var cpuSum, gpuSum float64
	for i := 0; i < n; i++ {
		if i > 0 {
			ri := ratios[i]
			rp := ratios[i-1]
			switch {
			case ri > rp:
				frac := 0.0
				if rp < 1 {
					frac = (1 - ri) / (1 - rp)
				}
				d := (gpuSum - gpuNS[i-1]*frac) - (cpuSum + cpuNS[i])
				if d > 0 {
					dCPU[i] = d
				}
			case ri < rp:
				frac := 0.0
				if ri < 1 {
					frac = (1 - rp) / (1 - ri)
				}
				d := cpuSum - (gpuSum + gpuNS[i] - gpuNS[i]*frac)
				if d > 0 {
					dGPU[i] = d
				}
			}
		}
		cpuSum += cpuNS[i] + dCPU[i]
		gpuSum += gpuNS[i] + dGPU[i]
	}
	return cpuSum, gpuSum, dCPU, dGPU
}

// TestDelayStepEqualsTheLoopItReplaced: Delays and DelayTotals over the
// shared DelayStep produce the bits the old loop produced — on ordinary
// series, and on the values the clamps exist for: ratios of exactly 1, NaN
// and infinite step times, negative ones.
func TestDelayStepEqualsTheLoopItReplaced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	odd := []float64{0, 1, math.Inf(1), math.NaN(), -3, math.Copysign(0, -1)}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	for c := 0; c < 20000; c++ {
		n := rng.Intn(6)
		cpu, gpu, ratios := make([]float64, n), make([]float64, n), make(Ratios, n)
		for i := 0; i < n; i++ {
			cpu[i], gpu[i], ratios[i] = 1e6*rng.Float64(), 1e6*rng.Float64(), float64(rng.Intn(11))/10
			if rng.Intn(8) == 0 {
				cpu[i] = odd[rng.Intn(len(odd))]
			}
			if rng.Intn(8) == 0 {
				gpu[i] = odd[rng.Intn(len(odd))]
			}
			if rng.Intn(16) == 0 {
				ratios[i] = odd[rng.Intn(len(odd))]
			}
		}
		wc, wg, wdc, wdg := refDelays(cpu, gpu, ratios)
		gc, gg, gdc, gdg := Delays(cpu, gpu, ratios)
		tc, tg := DelayTotals(cpu, gpu, ratios)
		ok := same(gc, wc) && same(gg, wg) && same(tc, wc) && same(tg, wg)
		for i := 0; i < n; i++ {
			ok = ok && same(gdc[i], wdc[i]) && same(gdg[i], wdg[i])
		}
		if !ok {
			t.Fatalf("cpu %v gpu %v ratios %v:\nDelays      = %v %v %v %v\nDelayTotals = %v %v\nold loop    = %v %v %v %v",
				cpu, gpu, ratios, gc, gg, gdc, gdg, tc, tg, wc, wg, wdc, wdg)
		}
	}
}
