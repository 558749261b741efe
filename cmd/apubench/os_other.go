//go:build !linux

package main

import "time"

// Outside Linux, where the baseline is not recorded, the process metrics
// read 0 and the calibration kernel falls back to the wall clock and the
// Go heap.

func processUsage() (cpu time.Duration, peakRSS int64) { return 0, 0 }

var processStart = time.Now()

func threadCPU() time.Duration { return time.Since(processStart) }

func offHeap(n int) ([]uint64, error) { return make([]uint64, n), nil }
