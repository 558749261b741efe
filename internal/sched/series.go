// Package sched implements the co-processing schemes of the paper
// (Sec. 3.2) over series of fine-grained steps:
//
//   - OL (off-loading): each step runs entirely on one device.
//   - DD (data dividing): one workload ratio r splits every step's tuples
//     between the CPU and the GPU.
//   - PL (pipelined execution): a per-step ratio r_i; DD and OL are the
//     special cases "all ratios equal" and "all ratios in {0,1}".
//   - BasicUnit (appendix): dynamic coarse-grained chunk scheduling used as
//     the comparison baseline in Figs. 16–18.
//
// The executor runs each step's CPU share and GPU share through the real
// kernels, converts the accounting into simulated per-step times, and
// applies the paper's pipelined-delay equations (Eqs. 4 and 5) to obtain
// the total elapsed time (Eqs. 1 and 2). On the emulated discrete
// architecture it additionally charges PCI-e transfers for the data the
// ratio differences move between devices.
package sched

import (
	"fmt"

	"apujoin/internal/device"
)

// StepID identifies a fine-grained step from the paper's Algorithms 1 and 2.
type StepID int

const (
	N1 StepID = iota // compute partition number
	N2               // visit the partition header
	N3               // insert <key,rid> into partition
	B1               // compute hash bucket number
	B2               // visit the hash bucket header
	B3               // visit the key lists, create key header if necessary
	B4               // insert the record id into the rid list
	P1               // compute hash bucket number
	P2               // visit the hash bucket header
	P3               // visit the hash key lists
	P4               // visit matching build tuple, produce output
)

var stepNames = [...]string{"n1", "n2", "n3", "b1", "b2", "b3", "b4", "p1", "p2", "p3", "p4"}

// String returns the paper's step name (n1…p4).
func (s StepID) String() string {
	if int(s) < len(stepNames) {
		return stepNames[s]
	}
	return fmt.Sprintf("step(%d)", int(s))
}

// Kernel executes the real work of one step over items [lo,hi) on a device
// and returns the accounting record. Kernels are closures created by the
// join driver, capturing the hash table and intermediate arrays.
type Kernel func(d *device.Device, lo, hi int) device.Acct

// Barrier is an optional host-side action between two steps (e.g. the
// radix pass's layout of its partitions' slots between n2 and n3). It runs
// once after the step completes on both devices.
type Barrier func()

// ParKernel executes the real work of one step over items [lo,hi) like a
// Kernel, but decomposes the range over the pool's workers internally
// (range morsels for streaming steps, ownership shards for insert steps).
// Implementations must keep the decomposition worker-independent so the
// returned accounting is identical for any pool size.
type ParKernel func(d *device.Device, lo, hi int, p *Pool) device.Acct

// Step is one data-parallel step of a series.
type Step struct {
	ID StepID
	// OutBytesPerItem is the size of the intermediate result one item
	// produces for the next step; it prices PCI-e transfers of
	// intermediates on the discrete architecture.
	OutBytesPerItem int64
	Kernel          Kernel
	// ParKernel, when non-nil, replaces Kernel on executors carrying a
	// worker pool. Steps without one (host barriers aside, e.g. the
	// grouped-execution kernels whose processing order is itself the
	// optimization) always run single-stream.
	ParKernel ParKernel
	// ParSetup, when non-nil, runs once on the host before the step's
	// ParKernel calls — only where those run — to prepare what every
	// device's share of the step reads (the build's insert ownership).
	ParSetup func(p *Pool)
	// After, if non-nil, runs on the host once the step has completed.
	After Barrier
}

// Series is a sequence of steps separated by data dependencies, all over
// the same item count. A hash join is a sequence of series separated by
// barriers: g× (n1..n3), then (b1..b4), then (p1..p4).
type Series struct {
	Name  string
	Items int
	Steps []Step
}

// Ratios is the CPU workload ratio per step (paper notation r_i: the CPU
// processes the first r_i fraction of items, the GPU the remainder).
type Ratios []float64

// Uniform returns DD ratios: the same r for every one of n steps.
func Uniform(r float64, n int) Ratios {
	out := make(Ratios, n)
	out.Fill(r)
	return out
}

// Fill sets every ratio to r: Uniform into a vector the caller holds.
func (rs Ratios) Fill(r float64) {
	for i := range rs {
		rs[i] = r
	}
}

// Validate checks all ratios are within [0,1] and the count matches n.
func (r Ratios) Validate(n int) error {
	if len(r) != n {
		return fmt.Errorf("sched: %d ratios for %d steps", len(r), n)
	}
	for i, v := range r {
		if v < 0 || v > 1 {
			return fmt.Errorf("sched: ratio %d out of range: %v", i, v)
		}
	}
	return nil
}

// StepResult records one executed step.
type StepResult struct {
	ID         StepID
	Ratio      float64
	CPUNS      float64
	GPUNS      float64
	DelayCPUNS float64
	DelayGPUNS float64
	CPUAcct    device.Acct
	GPUAcct    device.Acct
	// IntermediateItems is the number of items whose intermediate results
	// cross devices relative to the previous step: |r_i - r_{i-1}| × x.
	IntermediateItems int64
	IntermediateBytes int64
}

// Result is the outcome of executing a series.
type Result struct {
	Name  string
	Steps []StepResult
	// CPUNS / GPUNS are the per-device totals including pipeline delays
	// (Eq. 2); TotalNS is their max (Eq. 1).
	CPUNS, GPUNS, TotalNS float64
	// TransferNS is the PCI-e time charged on the discrete architecture.
	TransferNS float64
}

// EnvFor supplies the per-step memory environment (cache hit ratios).
// The join driver implements it from the shared-cache model and the
// current working-set sizes.
type EnvFor func(id StepID, d *device.Device) device.Env
