package cost

import (
	"math"
	"testing"

	"apujoin/internal/device"
	"apujoin/internal/sched"
)

// TestModelMatchesExecutorWithoutLocks is the central consistency invariant
// between the two layers: for a kernel with no atomics and no divergence,
// the cost model's estimate must equal the executor's simulated time (both
// see the same environment), because the model only omits lock contention
// and divergence.
func TestModelMatchesExecutorWithoutLocks(t *testing.T) {
	const items = 100000
	env := fixedEnv(device.UniformEnv(0.7))

	kernel := func(d *device.Device, lo, hi int) device.Acct {
		var a device.Acct
		n := int64(hi - lo)
		a.Items = n
		a.Instr = n * 45
		a.SeqBytes = n * 12
		a.Rand[device.RegionHashTable] = n * 2
		return a
	}
	series := sched.Series{
		Name:  "synthetic",
		Items: items,
		Steps: []sched.Step{{ID: sched.P2, Kernel: kernel}, {ID: sched.P3, Kernel: kernel}},
	}

	exec := &sched.Exec{CPU: device.New(device.APUCPU()), GPU: device.New(device.APUGPU()), Env: env}
	ratios := sched.Ratios{0.4, 0.7}
	res, err := exec.Run(series, ratios)
	if err != nil {
		t.Fatal(err)
	}

	prof := ProfileResult(res, items)
	m := &Model{CPU: device.APUCPU(), GPU: device.APUGPU(), Env: env}
	est, err := m.Estimate(prof, items, ratios)
	if err != nil {
		t.Fatal(err)
	}

	if rel := math.Abs(est.TotalNS-res.TotalNS) / res.TotalNS; rel > 0.02 {
		t.Fatalf("model %.0fns vs executor %.0fns: %.1f%% apart (should agree without locks)",
			est.TotalNS, res.TotalNS, rel*100)
	}
}

// TestModelUnderestimatesWithAtomics: once the kernel issues contended
// atomics, the executor charges them and the model (by design) does not,
// so measured > estimated — the "lock overhead" the paper back-derives.
func TestModelUnderestimatesWithAtomics(t *testing.T) {
	const items = 100000
	env := fixedEnv(device.UniformEnv(0.7))
	kernel := func(d *device.Device, lo, hi int) device.Acct {
		var a device.Acct
		n := int64(hi - lo)
		a.Items = n
		a.Instr = n * 45
		a.AtomicOps = n
		a.AtomicTargets = 4 // heavy contention
		a.AllocAtomics = n / 10
		return a
	}
	series := sched.Series{Name: "atomics", Items: items,
		Steps: []sched.Step{{ID: sched.B4, Kernel: kernel}}}
	exec := &sched.Exec{CPU: device.New(device.APUCPU()), GPU: device.New(device.APUGPU()), Env: env}
	ratios := sched.Ratios{0.3}
	res, err := exec.Run(series, ratios)
	if err != nil {
		t.Fatal(err)
	}
	prof := ProfileResult(res, items)
	m := &Model{CPU: device.APUCPU(), GPU: device.APUGPU(), Env: env}
	if est := m.EstimateNS(prof, items, ratios); est >= res.TotalNS {
		t.Fatalf("model %.0fns not below executor %.0fns despite excluded locks", est, res.TotalNS)
	}
}

// TestDelaysZeroForSingleDeviceRuns: CPU-only and GPU-only runs can never
// stall on cross-device dependencies.
func TestDelaysZeroForSingleDeviceRuns(t *testing.T) {
	for _, r := range []float64{0, 1} {
		cpu := []float64{10, 20, 30, 40}
		gpu := []float64{40, 30, 20, 10}
		_, _, dC, dG := sched.Delays(cpu, gpu, sched.Uniform(r, 4))
		for i := range dC {
			if dC[i] != 0 || dG[i] != 0 {
				t.Fatalf("ratio %v: delay at step %d", r, i)
			}
		}
	}
}
