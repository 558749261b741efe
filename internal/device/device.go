package device

import "fmt"

// Env supplies the memory environment for timing a batch: the cache hit
// ratio per region, as computed by the caller from the shared-cache model
// and current working-set sizes.
type Env struct {
	// HitRatio[r] is the probability a random access to region r hits the
	// shared L2 cache. Values are clamped to [0,1].
	HitRatio [NumRegions]float64
}

// UniformEnv returns an Env with the same hit ratio for every region,
// convenient for microbenchmarks and tests.
func UniformEnv(hit float64) Env {
	var e Env
	for i := range e.HitRatio {
		e.HitRatio[i] = hit
	}
	return e
}

// Breakdown decomposes simulated batch time into its components (ns).
type Breakdown struct {
	ComputeNS float64
	MemoryNS  float64
	AtomicNS  float64
	LocalNS   float64
	LaunchNS  float64
}

// TotalNS returns the summed elapsed time of the breakdown.
func (b Breakdown) TotalNS() float64 {
	return b.ComputeNS + b.MemoryNS + b.AtomicNS + b.LocalNS + b.LaunchNS
}

// String renders the breakdown for diagnostics.
func (b Breakdown) String() string {
	return fmt.Sprintf("compute=%.0fns mem=%.0fns atomic=%.0fns local=%.0fns launch=%.0fns",
		b.ComputeNS, b.MemoryNS, b.AtomicNS, b.LocalNS, b.LaunchNS)
}

// Device is a simulated compute device. It is stateless apart from its
// profile; concurrent use is safe.
type Device struct {
	Profile
}

// New returns a device for the profile, panicking on invalid profiles
// (profiles are package constants or test fixtures, so an invalid one is a
// programming error).
func New(p Profile) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Device{Profile: p}
}

// Time converts an accounting record into simulated elapsed time.
func (d *Device) Time(a Acct, env Env) Breakdown {
	var b Breakdown
	if a.Items == 0 && a.Instr == 0 && a.RandTotal() == 0 && a.AtomicOps == 0 && a.SeqBytes == 0 {
		return b
	}

	div := 1.0
	if d.Kind == GPU {
		div = a.DivergenceFactor()
	}

	// Compute: aggregate instructions over the device's issue throughput,
	// inflated by lockstep divergence on the GPU.
	instr := a.Instr + a.Items*d.PerItemInstr
	b.ComputeNS = float64(instr) / d.InstrThroughput() * div

	// Memory: streaming bytes are bandwidth-bound; random accesses pay the
	// amortized hit/miss cost. Lockstep divergence also stretches the
	// random-access phase on the GPU because idle lanes still occupy the
	// wavefront's memory slot.
	mem := float64(a.SeqBytes) / d.BandwidthGBs // GB/s == bytes/ns
	for r := Region(0); r < NumRegions; r++ {
		n := a.Rand[r]
		if n == 0 {
			continue
		}
		hit := clamp01(env.HitRatio[r])
		cost := float64(hit*d.RandHitNS) + float64((1-hit)*d.RandMissNS)
		mem += float64(float64(n) * cost)
	}
	if d.Kind == GPU {
		mem *= div
	}
	b.MemoryNS = mem

	// Atomics: the device is limited both by aggregate atomic throughput
	// and by serialization on the hottest contended location.
	if a.AtomicOps > 0 {
		targets := a.AtomicTargets
		if targets <= 0 {
			targets = a.AtomicOps
		}
		throughput := float64(a.AtomicOps) * d.AtomicNS / float64(min64(int64(d.Cores), a.AtomicOps))
		perTarget := float64(a.AtomicOps) / float64(targets)
		// Serialization matters when many lanes hammer few targets; it
		// fades linearly as the targets spread past the lane count.
		scale := 1 - float64(targets)/float64(d.Cores)
		if scale < 0 {
			scale = 0
		}
		serialized := perTarget * d.AtomicSerNS * scale
		b.AtomicNS = maxf(throughput, serialized)
	}

	// Allocator atomics target a single global pointer and serialize fully
	// once more than one lane is active.
	if a.AllocAtomics > 0 {
		ser := d.AtomicSerNS
		if d.Cores == 1 {
			ser = d.AtomicNS
		}
		b.AtomicNS += float64(float64(a.AllocAtomics) * ser)
	}

	// Local ops execute in parallel across lanes at L1/LDS speed; the
	// profile's LocalNS is already the amortized per-op cost.
	if a.LocalOps > 0 {
		b.LocalNS = float64(a.LocalOps) * d.LocalNS
	}

	b.LaunchNS = d.LaunchNS
	return b
}

// TimeNS is a convenience wrapper returning just the total.
func (d *Device) TimeNS(a Acct, env Env) float64 { return d.Time(a, env).TotalNS() }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
