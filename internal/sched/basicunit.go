package sched

import (
	"fmt"

	"apujoin/internal/device"
)

// BasicUnitResult reports a BasicUnit run: the appendix's coarse-grained
// dynamic scheduling baseline, where whole chunks of tuples are assigned to
// whichever device becomes free and processed through every step of the
// phase on that device.
type BasicUnitResult struct {
	Name    string
	CPUNS   float64
	GPUNS   float64
	TotalNS float64
	// CPUShare is the fraction of items the CPU ended up processing — the
	// per-phase ratio reported in the paper's Figs. 17 and 18.
	CPUShare float64
	// Chunks dispatched per device.
	CPUChunks, GPUChunks int
}

// BasicUnitChunkNS is the dispatch overhead of grabbing one chunk from the
// shared work queue (an atomic on the queue head plus scheduling logic).
const BasicUnitChunkNS = 2500.0

// RunBasicUnit executes the series with the BasicUnit scheme. cpuChunk and
// gpuChunk are the per-device chunk sizes in tuples ("the chunk size is
// tuned for the target architecture").
//
// The scheduler is simulated greedily: the device whose simulated clock is
// lower grabs the next chunk and runs all steps of the series over it.
// This is exactly the deficiency the paper calls out — a device processes
// every step of its chunk even when some steps run far better on the peer.
//
// The series' Kernels must not depend on a mid-series host barrier:
// BasicUnit is defined by the paper for the build and probe operations,
// whose steps are per-tuple independent, and a radix pass's single-stream n3
// charges chunk by chunk. After hooks still run once at the end, in step
// order (a radix pass's layout, which only its pooled n3 and its gather
// read). Like Run, a cancelled Exec.Ctx aborts at the next chunk boundary
// with the context's error.
func (e *Exec) RunBasicUnit(s Series, cpuChunk, gpuChunk int) (BasicUnitResult, error) {
	if cpuChunk <= 0 {
		cpuChunk = 1 << 14
	}
	if gpuChunk <= 0 {
		gpuChunk = 1 << 16
	}
	res := BasicUnitResult{Name: s.Name}

	var cpuClock, gpuClock float64
	var cpuItems, gpuItems int
	next := 0
	for next < s.Items {
		if err := e.cancelled(); err != nil {
			return BasicUnitResult{}, fmt.Errorf("series %s: %w", s.Name, err)
		}
		onCPU := cpuClock <= gpuClock
		var chunk int
		var dev *device.Device
		if onCPU {
			chunk = cpuChunk
			dev = e.CPU
		} else {
			chunk = gpuChunk
			dev = e.GPU
		}
		lo := next
		hi := lo + chunk
		if hi > s.Items {
			hi = s.Items
		}
		next = hi

		var t float64
		for _, st := range s.Steps {
			a := st.Kernel(dev, lo, hi)
			t += dev.TimeNS(a, e.Env(st.ID, dev))
		}
		t += BasicUnitChunkNS
		if onCPU {
			cpuClock += t
			cpuItems += hi - lo
			res.CPUChunks++
		} else {
			gpuClock += t
			gpuItems += hi - lo
			res.GPUChunks++
		}
	}

	// Run the barrier hooks once everything is processed.
	for _, st := range s.Steps {
		if st.After != nil {
			st.After()
		}
	}

	res.CPUNS = cpuClock
	res.GPUNS = gpuClock
	res.TotalNS = maxf(cpuClock, gpuClock)
	if s.Items > 0 {
		res.CPUShare = float64(cpuItems) / float64(s.Items)
	}
	return res, nil
}
