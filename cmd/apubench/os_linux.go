package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processUsage returns the CPU time the process has consumed (user plus
// system) and its peak resident set in bytes.
func processUsage() (cpu time.Duration, peakRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), int64(ru.Maxrss) * 1024
}

// threadCPU returns the CPU time the calling OS thread has consumed. The
// calibration kernel is timed with it rather than with the wall clock, so
// that the process's own background work — a GC cycle still finishing on
// the other core — does not read as a slow machine. It reads
// CLOCK_THREAD_CPUTIME_ID because getrusage's per-thread times advance in
// scheduler ticks, far too coarse for a kernel of a few milliseconds.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// offHeap returns n zeroed words outside the Go heap, so that the
// calibration tables do not move the collector's pacing — a tiny-heap
// workload would otherwise collect a tenth as often as the server it models.
// The mapping lives until the process exits.
func offHeap(n int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}
