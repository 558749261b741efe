package core

import (
	"apujoin/internal/device"
	"apujoin/internal/mem"
	"apujoin/internal/radix"
	"apujoin/internal/sched"
)

// envState derives the per-step cache environment both the execution
// simulator and the cost model consult, so estimated and measured numbers
// see the same memory system.
type envState struct {
	cache mem.CacheModel

	// tableBytes is the (estimated, then actual) resident size of the hash
	// table; parts is the number of radix partitions localizing accesses
	// (1 for SHJ).
	tableBytes int64
	parts      int
	shared     bool

	// partitionStreams is the open-partition working set of the current
	// radix pass: fan-out × one active chunk.
	partitionStreams int64

	// coarsePairBytes, when non-zero, marks the coarse-grained PHJ-PL'
	// kernel: every hardware lane holds a private partition pair, so the
	// per-device working set is lanes × pair bytes (Table 3's cache
	// penalty).
	coarsePairBytes int64

	// scratchPressure models the cache pressure of the streaming
	// intermediate arrays.
	scratchPressure int64
}

// envFor implements sched.EnvFor.
func (e *envState) envFor(id sched.StepID, d *device.Device) device.Env {
	var env device.Env

	// Input columns are streamed; the rare random touch usually hits a
	// prefetched line.
	env.HitRatio[device.RegionInput] = 0.95

	// Hash table: working set localized by partitioning, shared or
	// duplicated across devices.
	ws := e.tableBytes
	if e.parts > 1 {
		ws /= int64(e.parts)
	}
	if e.coarsePairBytes > 0 {
		// PHJ-PL': each lane owns a private pair table.
		ws = e.coarsePairBytes * int64(d.Cores)
		env.HitRatio[device.RegionHashTable] = e.cache.HitRatio(ws, e.scratchPressure)
	} else if e.shared {
		env.HitRatio[device.RegionHashTable] = e.cache.SharedHitRatio(ws, e.scratchPressure)
	} else {
		env.HitRatio[device.RegionHashTable] = e.cache.SeparateHitRatio(ws, e.scratchPressure)
	}

	// Partition appends: the active window is one chunk per open
	// partition.
	env.HitRatio[device.RegionPartition] = e.cache.HitRatio(e.partitionStreams, e.scratchPressure)

	// Output appends are block-sequential.
	env.HitRatio[device.RegionOutput] = 0.9

	// Intermediate arrays are streamed with good locality.
	env.HitRatio[device.RegionScratch] = 0.8
	return env
}

// geometry is the layout a join's build side fixes before anything runs:
// the radix plan and partition count (PHJ; one partition for SHJ), the
// buckets per partition, and the bucket count of the table the run builds.
type geometry struct {
	plan           radix.Plan
	parts          int
	bucketsPerPart int
	nBuckets       int
}

// staticEnv computes a join's geometry over |R| = nr build tuples and the
// memory environment its phases start in, table residency estimated from
// that geometry. The runner executes under it, and the planner and the
// Monte Carlo driver price under it, so the cost model and the execution
// see one memory system.
func staticEnv(opt Options, nr int) (envState, geometry) {
	g := geometry{parts: 1, bucketsPerPart: ceilPow2(nr)}
	if opt.Algo == PHJ {
		g.plan = radix.PlanFor(nr, opt.RadixTargetBytes)
		g.parts = g.plan.Partitions()
		g.bucketsPerPart = ceilPow2(nr / g.parts)
	}
	g.nBuckets = g.parts * g.bucketsPerPart
	return envState{
		cache:           opt.Cache,
		tableBytes:      estimateTableBytes(nr, g.nBuckets),
		parts:           g.parts,
		shared:          !opt.SeparateTables,
		scratchPressure: 512 << 10, // streaming intermediates pollute ~0.5 MB
	}, g
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// estimateTableBytes predicts the resident hash-table size for |R| build
// tuples before the build runs: headers + one key node per distinct key
// (≈|R| under uniform keys) + one rid node per tuple.
func estimateTableBytes(buildTuples, nBuckets int) int64 {
	return int64(nBuckets)*8 + int64(buildTuples)*(3+2)*4
}

// missStats converts executed series results into modeled L2 accesses and
// misses using the same environment, aggregating across devices.
func (e *envState) missStats(res sched.Result, cpu, gpu *device.Device) CacheStats {
	var cs CacheStats
	for _, st := range res.Steps {
		for reg := device.Region(0); reg < device.NumRegions; reg++ {
			for _, da := range []struct {
				acct device.Acct
				dev  *device.Device
			}{{st.CPUAcct, cpu}, {st.GPUAcct, gpu}} {
				n := da.acct.Rand[reg]
				if n == 0 {
					continue
				}
				hit := e.envFor(st.ID, da.dev).HitRatio[reg]
				cs.Accesses += n
				cs.Misses += int64((1 - hit) * float64(n))
			}
		}
	}
	return cs
}
