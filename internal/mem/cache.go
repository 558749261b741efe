// Package mem models the memory system of the coupled architecture: the
// 4 MB L2 data cache shared by the CPU and the GPU, the zero-copy buffer
// both devices access, and the PCI-e bus used when emulating a discrete
// architecture (paper Sec. 5.1: delay = latency + size/bandwidth with
// latency 0.015 ms and bandwidth 3 GB/s).
//
// CacheModel is the analytical cache model used by the execution simulator
// and the cost model: it converts working-set sizes into hit ratios, with a
// sharing credit when both devices touch one structure through the shared
// cache (the mechanism behind the paper's shared-vs-separate hash table
// result, Fig. 10). Its L2 miss counts are what the simulated clock and the
// Table 3 measurements read; the tests hold it to a trace-driven LRU
// simulator.
package mem

import "fmt"

// DefaultL2Bytes is the shared L2 capacity of the A8-3870K (Table 1: 4 MB).
const DefaultL2Bytes = 4 << 20

// DefaultLineBytes is the cache line size assumed throughout.
const DefaultLineBytes = 64

// CacheModel converts working-set sizes into random-access hit ratios.
type CacheModel struct {
	// SizeBytes is the cache capacity (shared L2).
	SizeBytes int64
	// LineBytes is the cache line size.
	LineBytes int64
	// ColdFraction bounds the hit ratio below 1 to account for cold and
	// conflict misses even for cache-resident structures.
	ColdFraction float64
}

// NewCacheModel returns the A8-3870K shared-L2 model.
func NewCacheModel() CacheModel {
	return CacheModel{SizeBytes: DefaultL2Bytes, LineBytes: DefaultLineBytes, ColdFraction: 0.03}
}

// HitRatio estimates the probability that a uniformly random access to a
// structure of workingSet bytes hits the cache, given how many bytes of
// cache capacity competing structures consume (pressure).
func (c CacheModel) HitRatio(workingSet, pressure int64) float64 {
	if workingSet <= 0 {
		return 1 - c.ColdFraction
	}
	avail := c.SizeBytes - pressure
	if avail < c.SizeBytes/8 {
		avail = c.SizeBytes / 8 // LRU keeps some share for the hot structure
	}
	if workingSet <= avail {
		return 1 - c.ColdFraction
	}
	return (1 - c.ColdFraction) * float64(avail) / float64(workingSet)
}

// SharedHitRatio estimates the hit ratio when both devices access a single
// shared instance of the structure through the shared L2: the working set
// is counted once, and the second device reuses lines the first device
// pulled in, which shows up as a small extra credit on top of HitRatio.
func (c CacheModel) SharedHitRatio(workingSet, pressure int64) float64 {
	base := c.HitRatio(workingSet, pressure)
	// Reuse credit: lines warmed by the peer device. Bounded so a
	// DRAM-sized structure still misses most of the time.
	credit := float64(0.04 * (1 - base))
	return base + credit
}

// SeparateHitRatio estimates the per-device hit ratio when each device keeps
// its own copy of the structure: the two copies compete for the same shared
// cache, doubling the effective working set.
func (c CacheModel) SeparateHitRatio(workingSet, pressure int64) float64 {
	return c.HitRatio(2*workingSet, pressure)
}

// ZeroCopy tracks the zero-copy buffer both devices can address
// (Table 1: 512 MB shared). Joins whose footprint exceeds the buffer must
// take the external-partitioning path (paper appendix, Fig. 19).
type ZeroCopy struct {
	Capacity int64
	used     int64
}

// NewZeroCopy returns a buffer with the A8-3870K's 512 MB capacity.
func NewZeroCopy() *ZeroCopy { return &ZeroCopy{Capacity: 512 << 20} }

// Used returns the currently allocated bytes.
func (z *ZeroCopy) Used() int64 { return z.used }

// Alloc reserves n bytes, failing if the buffer would overflow.
func (z *ZeroCopy) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("mem: negative zero-copy allocation %d", n)
	}
	if z.used+n > z.Capacity {
		return fmt.Errorf("mem: zero-copy buffer overflow: %d used + %d requested > %d capacity",
			z.used, n, z.Capacity)
	}
	z.used += n
	return nil
}

// Free releases n bytes.
func (z *ZeroCopy) Free(n int64) {
	z.used -= n
	if z.used < 0 {
		z.used = 0
	}
}

// PCIe models the bus of the emulated discrete architecture.
type PCIe struct {
	LatencyNS    float64
	BandwidthGBs float64
}

// NewPCIe returns the bus the paper emulates: 0.015 ms latency, 3 GB/s.
func NewPCIe() PCIe {
	return PCIe{LatencyNS: 0.015e6, BandwidthGBs: 3.0}
}

// TransferNS returns the delay of one transfer of size bytes:
// latency + size/bandwidth.
func (p PCIe) TransferNS(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return p.LatencyNS + float64(bytes)/p.BandwidthGBs
}

// CopyNS returns the cost of moving bytes between system memory and the
// zero-copy buffer (used by the external join path, Fig. 19). The copy runs
// at memcpy speed over the shared memory controller.
func CopyNS(bytes int64) float64 {
	const memcpyGBs = 6.0 // read + write over the shared controller
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / memcpyGBs
}
