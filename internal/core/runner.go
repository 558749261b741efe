package core

import (
	"sync"

	"apujoin/internal/alloc"
	"apujoin/internal/cost"
	"apujoin/internal/device"
	"apujoin/internal/htab"
	"apujoin/internal/mem"
	"apujoin/internal/radix"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// runner holds the state of one join execution: relations, tables, scratch
// arrays for the per-step intermediate results, and the device pair. Every
// large []int32 it owns is a recycler slab (alloc.GetWords), handed back by
// release when the run ends.
//
// Runners are recycled (runners): release zeroes the run's state and hands
// the runner back, and what it built once — the executor, the cost model,
// the radix pass, the step series and their closures, which read the run's
// state through rn — serves every later run it is taken for.
type runner struct {
	runState

	// exec has the devices and the environment bound once; runCtx sets its
	// pool, PCI-e bus and context, and its step buffer serves every phase.
	exec  sched.Exec
	model cost.Model
	// pass is the radix pass running (partitionPass, pilotBuild), and own
	// the ownership layout the parallel insert steps of the build (b3's
	// kernel, b4's charge) read, built by b3's ParSetup. Both are released
	// with the run, and their scatters keep what they bound.
	pass radix.Pass
	own  htab.Owners
	// passBuf holds the choices for r's and s's radix passes, and
	// recSteps and recRatios the step timings and pass ratios of the build
	// side the run records (buildSide).
	passBuf   [2][]choice
	sRatios   sched.Ratios // s's pass ratios, passSteps per pass
	recSteps  [2][]StepTiming
	recRatios []sched.Ratios
	// The step series, built once: buildSeries, probeSeries and
	// passSeries cut them to the run's items.
	buildKernels, probeKernels, passKernels []sched.Step
}

// runState is a runner's state for one run, zero between runs.
type runState struct {
	opt Options
	r   rel.Relation
	s   rel.Relation

	// cpu and gpu point at devs, the run's devices, held by value.
	cpu, gpu *device.Device
	devs     [2]device.Device
	env      envState
	pcie     mem.PCIe // the discrete bus, when exec charges one
	// zeroCopy is the buffer of a run whose options name none.
	zeroCopy mem.ZeroCopy

	// pool is the morsel-driven worker pool Run hands to the executor; the
	// pilot's runner leaves it nil so profiling stays single-stream.
	pool *sched.Pool
	// passPool is the pool of the executor running the radix pass, which
	// n2's After hook lays the pass out on; nil leaves the layout to the
	// caller.
	passPool *sched.Pool

	// outExtra accumulates the output allocator activity the parallel p4's
	// morsels charge (outMu guards it).
	outMu    sync.Mutex
	outExtra alloc.Stats

	// The build's table(s) and the arenas their allocator requests are
	// charged on (makeTables) — or PHJ-PL''s pair tables and their arena —
	// held by value and set up in place, so a run allocates neither. table,
	// tableGPU, arena and arenaGPU point into them while the build holds
	// them, until buildSide moves the probe's table to its record.
	tables   [2]htab.Table
	arenas   [2]alloc.Arena
	arena    *alloc.Arena // CPU table's requests when separate
	arenaGPU *alloc.Arena // GPU table's requests when separate
	table    *htab.Table
	tableGPU *htab.Table // nil when shared
	probed   *htab.Table // the table the probe reads: the run's record's, or a kept one

	outArena alloc.Arena // P4Charge only counts
	out      htab.Out

	// Intermediate per-step arrays (the "intermediate results" PL trades
	// in): R-side for the build series, S-side for the probe series. The
	// work hints exist only under Options.Grouping, their one reader. b3's
	// one host pass leaves each build tuple's key-list nodes visited and
	// whether it created its key in visR and freshR, which b3 charges from;
	// p2's (htab.Walk) leaves each probe tuple's nodes visited and matches
	// in visS and matchS, which p3 and p4 charge from.
	bucketR, visR, freshR, workR []int32
	bucketS, visS, matchS, workS []int32

	// from and to are own's cuts of the device share b3's shards run.
	from, to [sched.DefaultShards]int32

	// geo is the run's table layout (staticEnv); the PHJ partition
	// offsets below, recycler slabs, follow from its radix plan.
	geo                geometry
	offsetsR, offsetsS []int32

	// held lists the run-lifetime slabs that no other field owns: the
	// carved scratch, and per partitioned relation its final pass buffer
	// (the key column). A fixed array, so holding costs the many small
	// joins of a pipeline no allocation.
	held  [3][]int32
	nheld int
}

// runners recycles runners across runs, each built whole once.
var runners = sync.Pool{New: func() any {
	rn := new(runner)
	rn.exec = sched.Exec{CPU: &rn.devs[0], GPU: &rn.devs[1], Env: rn.env.envFor, Steps: make([]sched.StepResult, buildSteps)}
	rn.model.Env = rn.exec.Env
	rn.buildKernels, rn.probeKernels, rn.passKernels = rn.makeBuildSteps(), rn.makeProbeSteps(), rn.makePassSteps()
	return rn
}}

// hold registers a slab for release and returns it.
func (rn *runner) hold(w []int32) []int32 {
	rn.held[rn.nheld] = w
	rn.nheld++
	return w
}

// release hands every slab of the run back to the recycler and the runner
// back to runners. The caller defers it, so it runs on the error and
// cancellation paths too, and that is safe there: Pool.ForEach is a
// completion barrier and Exec checks its context only between steps, so no
// worker still holds a slab or reads the runner when the run returns.
// Nothing of the runner may be used afterwards.
func (rn *runner) release() {
	for _, w := range rn.held[:rn.nheld] {
		alloc.PutWords(w)
	}
	alloc.PutWords(rn.offsetsR)
	alloc.PutWords(rn.offsetsS)
	rn.outArena.Release()
	rn.releaseTables()
	rn.runState = runState{}
	rn.exec.Pool, rn.exec.PCIe, rn.exec.Ctx = nil, nil, nil
	runners.Put(rn)
}

// releaseTables hands back whatever the runner still holds of the build:
// tables and the ownership layout. The arenas hold no words; dropping them
// keeps finish from counting the build's requests twice.
func (rn *runner) releaseTables() {
	rn.table.Release()
	rn.tableGPU.Release()
	rn.own.Release()
	rn.table, rn.tableGPU, rn.arena, rn.arenaGPU = nil, nil, nil, nil
}

// newRunner takes a runner from runners for a join of r and s under opt.
func newRunner(r, s rel.Relation, opt Options) *runner {
	rn := runners.Get().(*runner)
	rn.init(r, s, opt)
	return rn
}

// init prepares a runner fresh from runners for a join of r and s under
// opt, defaults set.
func (rn *runner) init(r, s rel.Relation, opt Options) {
	rn.opt, rn.r, rn.s = opt, r, s
	rn.devs = [2]device.Device{*device.New(opt.CPU), *device.New(opt.GPU)}
	rn.cpu, rn.gpu = &rn.devs[0], &rn.devs[1]
	rn.model.CPU, rn.model.GPU = opt.CPU, opt.GPU
	nr, ns := r.Len(), s.Len()
	rn.env, rn.geo = staticEnv(opt, nr)
	rn.outArena.Reset(opt.Alloc)
	rn.out = htab.Out{Arena: &rn.outArena, Materialize: !opt.CountOnly}

	// One slab, carved: the arrays live and die together. Its contents are
	// arbitrary; every column is written by the step that produces it
	// before the step that consumes it reads it.
	words := 3*nr + 3*ns
	if opt.Grouping {
		words += nr + ns
	}
	scratch := rn.hold(alloc.GetWords(words))
	carve := func(n int) []int32 {
		c := scratch[:n:n]
		scratch = scratch[n:]
		return c
	}
	rn.bucketR, rn.visR, rn.freshR = carve(nr), carve(nr), carve(nr)
	rn.bucketS, rn.visS, rn.matchS = carve(ns), carve(ns), carve(ns)
	if opt.Grouping {
		rn.workR, rn.workS = carve(nr), carve(ns)
	}
}

// bindDevices calls bind once per device of the runner and returns the
// lookup of its result by device, so a step's pooled kernel hands the pool a
// function built once per runner instead of a closure per call. The
// executor only passes the runner's own devices.
func bindDevices[F any](rn *runner, bind func(d *device.Device) F) func(d *device.Device) F {
	cpu, gpu := bind(&rn.devs[0]), bind(&rn.devs[1])
	return func(d *device.Device) F {
		if d == &rn.devs[1] {
			return gpu
		}
		return cpu
	}
}

// ranged is the pooled kernel that runs k over the range morsels of a
// device's share (Pool.MapRange).
func (rn *runner) ranged(k sched.Kernel) sched.ParKernel {
	on := bindDevices(rn, func(d *device.Device) func(lo, hi int) device.Acct {
		return func(lo, hi int) device.Acct { return k(d, lo, hi) }
	})
	return func(d *device.Device, lo, hi int, p *sched.Pool) device.Acct {
		return p.MapRange(lo, hi, on(d))
	}
}

// makeTables sets up the hash table(s) and the arenas their allocator
// requests are charged on, which only count, in the runner's own. For SHJ
// the bucket count is the next power of two of |R| (load factor ≤ 1); for
// PHJ the segmented layout is parts × bucketsPerPart. Either way it is the
// geometry's nBuckets, which the environment's residency estimate already
// assumes. Every table has room for all of R's keys: a separate GPU table
// receives every tuple under GPU-only ratios.
func (rn *runner) makeTables() {
	g, n := rn.geo, rn.r.Len()
	initTable := func(k int) (*htab.Table, *alloc.Arena) {
		t, arena := &rn.tables[k], &rn.arenas[k]
		arena.Reset(rn.opt.Alloc)
		if rn.opt.Algo == PHJ {
			t.InitSeg(g.parts, g.bucketsPerPart, n, rn.opt.hashShift, g.plan.TotalBits(), arena)
		} else {
			t.Init(n, n, rn.opt.hashShift, arena)
		}
		return t, arena
	}
	rn.table, rn.arena = initTable(0)
	if rn.opt.SeparateTables {
		rn.tableGPU, rn.arenaGPU = initTable(1)
	}
}

// tableFor routes a build kernel to the device's table: with separate
// tables the GPU builds its own.
func (rn *runner) tableFor(d *device.Device) *htab.Table {
	if rn.tableGPU != nil && d.Kind == device.GPU {
		return rn.tableGPU
	}
	return rn.table
}

// grouping computes the grouped execution order for a divergent step on a
// SIMD device and the accounting of the grouping pass itself. The order is
// a recycler slab the step puts back after its kernel.
func (rn *runner) grouping(d *device.Device, work []int32, lo, hi int) ([]int32, device.Acct) {
	var a device.Acct
	if !rn.opt.Grouping || d.WavefrontSize <= 1 || hi-lo <= 1 {
		return nil, a
	}
	order := sched.GroupOrder(work, lo, hi, rn.opt.Groups)
	instr, seq, rnd := sched.GroupCostAcct(hi - lo)
	a.Instr = instr
	a.SeqBytes = seq
	a.Rand[device.RegionScratch] = rnd
	return order, a
}

// buildSeries returns the build step series (b1..b4) over R. Every step
// carries both the single-stream kernel and its parallel counterpart; the
// executor picks by the presence of a worker pool.
func (rn *runner) buildSeries() sched.Series {
	return sched.Series{Name: "build", Items: rn.r.Len(), Steps: rn.buildKernels}
}

func (rn *runner) makeBuildSteps() []sched.Step {
	b1 := func(d *device.Device, lo, hi int) device.Acct {
		return rn.tableFor(d).B1(d, rn.r.Keys, rn.bucketR, lo, hi)
	}
	b3 := bindDevices(rn, func(d *device.Device) func(k int) device.Acct {
		return func(k int) device.Acct {
			return rn.tableFor(d).B3Shard(d, rn.own.Keys, rn.own.Bucket, rn.visR, rn.freshR, int(rn.from[k]), int(rn.to[k]))
		}
	})
	return []sched.Step{
		{ID: sched.B1, OutBytesPerItem: 4, Kernel: b1, ParKernel: rn.ranged(b1)},
		{
			ID: sched.B2, OutBytesPerItem: 8,
			Kernel: func(d *device.Device, lo, hi int) device.Acct {
				return rn.tableFor(d).B2(d, rn.bucketR, rn.workR, lo, hi)
			},
			// On a pool b2 only charges: b3's shards count the tuples.
			ParKernel: func(d *device.Device, lo, hi int, p *sched.Pool) device.Acct {
				return rn.tableFor(d).B2Charge(lo, hi)
			},
		},
		{
			ID: sched.B3, OutBytesPerItem: 4,
			Kernel: func(d *device.Device, lo, hi int) device.Acct {
				order, ga := rn.grouping(d, rn.workR, lo, hi)
				a := rn.tableFor(d).B3(d, rn.r.Keys, rn.bucketR, rn.visR, rn.freshR, lo, hi, order)
				alloc.PutWords(order)
				a.Add(ga)
				return a
			},
			// One layout over b1's bucket numbers serves b3 and b4, both
			// devices and both separate tables (they share one geometry).
			// offsetsR is nil but for a partitioned (PHJ) build side.
			ParSetup: func(p *sched.Pool) { rn.own.Build(p, rn.table, rn.r.Keys, rn.bucketR, rn.offsetsR) },
			ParKernel: func(d *device.Device, lo, hi int, p *sched.Pool) device.Acct {
				rn.from, rn.to = rn.own.Cut(lo), rn.own.Cut(hi)
				return p.MapShards(rn.own.Shards(), b3(d))
			},
		},
		{
			// b3's pass did b4's host work: b4 only charges, on a pool per
			// ownership shard.
			ID: sched.B4, OutBytesPerItem: 0,
			Kernel: func(d *device.Device, lo, hi int) device.Acct {
				return rn.tableFor(d).B4Charge(lo, hi, false)
			},
			ParKernel: func(d *device.Device, lo, hi int, p *sched.Pool) device.Acct {
				t := rn.tableFor(d)
				from, to := rn.own.Cut(lo), rn.own.Cut(hi)
				var shards [sched.DefaultShards]device.Acct
				for k := range rn.own.Shards() {
					shards[k] = t.B4Charge(int(from[k]), int(to[k]), true)
				}
				return sched.MergeAccts(shards[:rn.own.Shards()])
			},
		},
	}
}

// Steps per series: a radix pass (n1..n3), the build (b1..b4) and the probe
// (p1..p4).
const passSteps, buildSteps, probeSteps = 3, 4, 4

// probeSeries returns the probe step series (p1..p4) over S against the
// built table rn.probed. The probe only reads the table — concurrent runs
// may share it — so every step splits into plain range morsels. p2 does the
// host work of p2..p4 in one pass (htab.Walk); p3 and p4 only charge from
// its columns, as the pooled b2 does. p4 counts each morsel's matches,
// charges its output allocator in closed form and folds both back into the
// run.
func (rn *runner) probeSeries() sched.Series {
	return sched.Series{Name: "probe", Items: rn.s.Len(), Steps: rn.probeKernels}
}

func (rn *runner) makeProbeSteps() []sched.Step {
	p1 := func(d *device.Device, lo, hi int) device.Acct {
		return rn.probed.B1(d, rn.s.Keys, rn.bucketS, lo, hi)
	}
	walk := func(d *device.Device, lo, hi int) device.Acct {
		rn.probed.Walk(rn.s.Keys, rn.bucketS, rn.workS, rn.visS, rn.matchS, lo, hi)
		return rn.probed.P2Charge(lo, hi)
	}
	// Grouping keeps the probe off the pool, so a pooled share's morsels
	// run p3 ungrouped.
	p3 := func(d *device.Device, lo, hi int) device.Acct {
		order, ga := rn.grouping(d, rn.workS, lo, hi)
		a := rn.probed.P3Charge(d, rn.visS, lo, hi, order)
		alloc.PutWords(order)
		a.Add(ga)
		return a
	}
	return []sched.Step{
		{ID: sched.P1, OutBytesPerItem: 4, Kernel: p1, ParKernel: rn.ranged(p1)},
		{ID: sched.P2, OutBytesPerItem: 12, Kernel: walk, ParKernel: rn.ranged(walk)},
		{ID: sched.P3, OutBytesPerItem: 4, Kernel: p3, ParKernel: rn.ranged(p3)},
		{
			ID: sched.P4, OutBytesPerItem: 0,
			Kernel: func(d *device.Device, lo, hi int) device.Acct {
				order, ga := rn.grouping(d, rn.workS, lo, hi)
				a := rn.probed.P4Charge(d, rn.matchS, &rn.out, lo, hi, order)
				alloc.PutWords(order)
				a.Add(ga)
				return a
			},
			ParKernel: rn.ranged(rn.p4Morsel),
		},
	}
}

// p4Morsel is p4 over one morsel of a pooled share: it charges its output
// as an arena of its own would serve it and folds its pairs and that
// arena's activity into the run under the mutex, once per morsel (Out.Pairs
// is a plain field mid-struct, not guaranteed 64-bit aligned for atomics
// on 32-bit platforms).
func (rn *runner) p4Morsel(d *device.Device, lo, hi int) device.Acct {
	priv := htab.Out{Materialize: rn.out.Materialize}
	a := rn.probed.P4Charge(d, rn.matchS, &priv, lo, hi, nil)
	st := priv.ChargeFresh(&a, rn.opt.Alloc)
	rn.outMu.Lock()
	rn.out.Pairs += priv.Pairs
	rn.outExtra.Add(st)
	rn.outMu.Unlock()
	return a
}
