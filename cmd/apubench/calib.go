package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The benchmark's home is a small shared VM whose speed drifts by 10-20 %
// over minutes as its neighbours come and go, which no amount of work
// inside one run averages out. So the harness measures the machine while it
// measures the program: a fixed calibration kernel — harness code only, so
// no later change to the engine can move it — runs on every core at short
// intervals through each timed stretch, with the clients paused, and the
// run's host times are divided by how much slower than the reference the
// kernel ran. What is reported is time at reference speed.

// calibKernels are the calibration kernel's parts: a dependent ALU chain, a
// random walk over an L2-sized table, and a random walk over a table only
// the shared last-level cache and DRAM hold — the three things a join's
// host time is made of, the last being what noisy neighbours disturb most.
const calibKernels = 3

// calibReference is the round time of each part, in ms, on the machine the
// baseline was recorded on when it was quiet. Only ratios to it are used,
// so it fixes the unit of the reported times, not their spread.
var calibReference = [calibKernels]float64{5.4, 1.9, 4.9}

// calibWeight is each part's share in the speed factor. Over ten runs of
// each workload on the baseline machine every weighting from all-memory to
// an even three-way split cut the run-to-run spread of the host times from
// 7-11 % to 5-6 %; this one, half memory and half core, did so most evenly
// across the four workloads.
var calibWeight = [calibKernels]float64{0.25, 0.25, 0.5}

// calibEvery is the interval between calibration rounds inside a window.
const calibEvery = 250 * time.Millisecond

const (
	calibL2Words  = 1 << 17 // 1 MiB per goroutine
	calibMemWords = 1 << 22 // 32 MiB per goroutine
)

// calibrator runs calibration rounds and keeps their timings.
type calibrator struct {
	shrink  int           // divides the kernel's work and tables; 1 except at smoke scale
	every   time.Duration // interval between rounds inside a window
	l2, mem [][]uint64    // per-goroutine tables
	rounds  [][calibKernels]float64
	sink    uint64
}

func newCalibrator(sc scale) (*calibrator, error) {
	c := &calibrator{shrink: 1, every: calibEvery}
	if sc.ops > 0 {
		// The factor is meaningless at smoke scale; only the code path is
		// exercised, so rounds are cheap and come often enough to land inside
		// a window of a few milliseconds.
		c.shrink, c.every = 64, 25*time.Millisecond
	}
	for range runtime.GOMAXPROCS(0) {
		l2, err := calibTable(calibL2Words / c.shrink)
		if err != nil {
			return nil, err
		}
		mem, err := calibTable(calibMemWords / c.shrink)
		if err != nil {
			return nil, err
		}
		c.l2, c.mem = append(c.l2, l2), append(c.mem, mem)
	}
	return c, nil
}

// calibTable maps one walk table and touches every word of it.
func calibTable(words int) ([]uint64, error) {
	table, err := offHeap(words)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	for i := range table {
		table[i] = uint64(i)
	}
	return table, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// walk makes n dependent random reads and writes over table.
func walk(table []uint64, n int) uint64 {
	x, s, mask := uint64(2463534242), uint64(0), uint64(len(table)-1)
	for range n {
		x = xorshift(x)
		s += table[x&mask]
		table[x&mask] = s
	}
	return s
}

// round times each part of the kernel once: every part on all cores at
// once, its time the mean of the threads' CPU times.
func (c *calibrator) round() {
	var took [calibKernels]float64
	parts := [calibKernels]func(g int) uint64{
		func(int) uint64 {
			x, acc := uint64(88172645463325252), 1.0
			for range (1 << 21) / c.shrink {
				x = xorshift(x)
				acc = acc*1.0000001 + float64(x&0xff)
			}
			return x + uint64(acc)
		},
		func(g int) uint64 { return walk(c.l2[g], (1<<19)/c.shrink) },
		func(g int) uint64 { return walk(c.mem[g], (1<<18)/c.shrink) },
	}
	for k, part := range parts {
		cpu := make([]time.Duration, len(c.l2))
		sums := make([]uint64, len(c.l2))
		var wg sync.WaitGroup
		for g := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				start := threadCPU()
				sums[g] = part(g)
				cpu[g] = threadCPU() - start
			}()
		}
		wg.Wait()
		for g := range sums {
			took[k] += float64(cpu[g]) / 1e6 / float64(len(sums))
			c.sink += sums[g]
		}
	}
	c.rounds = append(c.rounds, took)
}

// burst runs a few rounds back to back, for stretches too short to
// interleave rounds into.
func (c *calibrator) burst() {
	for range 3 {
		c.round()
	}
}

// mark returns a position in the round log, to take a factor from later.
func (c *calibrator) mark() int { return len(c.rounds) }

// partsSince returns the median time of each kernel part over the rounds
// since mark.
func (c *calibrator) partsSince(mark int) (parts [calibKernels]float64) {
	for k := range parts {
		var v []float64
		for _, r := range c.rounds[mark:] {
			v = append(v, r[k])
		}
		parts[k] = median(v)
	}
	return parts
}

// factorSince returns how many times slower than the reference the machine
// ran over the rounds since mark: above 1 on a slow stretch. A host time
// divided by it is the time at reference speed.
func (c *calibrator) factorSince(mark int) float64 {
	var f float64
	for k, p := range c.partsSince(mark) {
		f += calibWeight[k] * p / calibReference[k]
	}
	if f <= 0 {
		return 1
	}
	return f
}
