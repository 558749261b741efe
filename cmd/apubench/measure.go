package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// verifier is the correctness gate: every op's match count must equal the
// oracle's, its simulated time must equal the first op's on the same input,
// and it must stay in the workload's regime. One verifier spans all set-up
// cycles of a run, so determinism is also checked across engine instances.
type verifier struct {
	w  workload
	in *inputs

	mu    sync.Mutex
	first []observation // the first verified op on each input
	seen  []bool
}

func newVerifier(w workload, in *inputs) *verifier {
	return &verifier{w: w, in: in, first: make([]observation, len(in.want)), seen: make([]bool, len(in.want))}
}

func (v *verifier) verify(o observation) error {
	if o.input < 0 || o.input >= len(v.in.want) {
		return fmt.Errorf("op reported unknown input %d", o.input)
	}
	if want := v.in.want[o.input]; o.matches != want {
		return fmt.Errorf("input %d: %d matches, the oracle counts %d", o.input, o.matches, want)
	}
	if v.w.check != nil {
		if err := v.w.check(o); err != nil {
			return err
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.seen[o.input] {
		v.seen[o.input], v.first[o.input] = true, o
		return nil
	}
	if first := v.first[o.input].simMS; o.simMS != first {
		return fmt.Errorf("input %d: simulated %v ms, the first op on it took %v ms", o.input, o.simMS, first)
	}
	return nil
}

// mean averages f over the inputs the run executed, each counted once and
// summed in input order. Every op on an input repeats its first op's
// simulated figures exactly (verify enforces it), so this is the per-op
// mean under even input weighting — and, unlike a sum over ops, it does not
// depend on how many ops the timed window happened to fit.
func (v *verifier) mean(f func(observation) float64) float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var sum float64
	var n int
	for k, seen := range v.seen {
		if seen {
			sum += f(v.first[k])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// window is one closed-loop measurement.
type window struct {
	latMS     []float64 // per-op wall time, call to verified result, sorted
	attempted int
	failed    int
	err       error // the first failure
	tuples    int64 // Σ input tuples of the verified ops
	wall      time.Duration
	busyMS    float64 // Σ op latencies ÷ clients: the window net of calibration pauses

	// Whole-process deltas over the window (servers and clients alike).
	allocBytes, mallocs uint64
	gcCycles            uint32
	cpu                 time.Duration
}

func (w window) perOp(total float64) float64 {
	if w.attempted == 0 {
		return 0
	}
	return total / float64(w.attempted)
}

// stopFunc ends a closed loop: it is asked before each op with the number
// of ops already issued and the time since the window opened.
type stopFunc func(issued int, elapsed time.Duration) bool

func afterOps(n int) stopFunc {
	return func(issued int, _ time.Duration) bool { return issued >= n }
}

// afterTime runs for d, and longer if that is what it takes to issue minOps.
func afterTime(d time.Duration, minOps int) stopFunc {
	return func(issued int, elapsed time.Duration) bool { return elapsed >= d && issued >= minOps }
}

// drive runs w's closed loop against inst: each of w.clients clients issues
// its next op once its previous one is verified. Op indices count up from
// first, shared between the clients. With a calibrator, the clients pause
// between ops every cal.every for one calibration round.
func drive(ctx context.Context, w workload, inst instance, v *verifier, tr *tracer, cal *calibrator, first int, stop stopFunc) window {
	type clientResult struct {
		latMS  []float64
		failed int
		err    error
		tuples int64
	}
	results := make([]clientResult, w.clients)
	var next atomic.Int64
	next.Store(int64(first))

	// Clients hold gate shared for the length of an op; a calibration round
	// takes it exclusively, so it waits for the ops in flight and holds back
	// the next ones.
	var gate sync.RWMutex
	var wg, calWG sync.WaitGroup
	calStop := make(chan struct{})
	if cal != nil {
		cal.round()
		calWG.Add(1)
		go func() {
			defer calWG.Done()
			tick := time.NewTicker(cal.every)
			defer tick.Stop()
			for {
				select {
				case <-calStop:
					return
				case <-tick.C:
					gate.Lock()
					cal.round()
					gate.Unlock()
				}
			}
		}()
	}
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func(res *clientResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if stop(i-first, time.Since(start)) {
					return
				}
				gate.RLock()
				root := tr.begin("op", -1, int64(i))
				t0 := time.Now()
				o, err := inst.op(ctx, i, tr, root)
				if err == nil {
					sp := tr.begin("bench.verify", root, int64(i))
					err = v.verify(o)
					tr.end(sp)
				}
				res.latMS = append(res.latMS, float64(time.Since(t0))/1e6)
				tr.end(root)
				gate.RUnlock()
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = fmt.Errorf("op %d: %w", i, err)
					}
					continue
				}
				res.tuples += v.in.tuples[o.input]
			}
		}(&results[c])
	}
	wg.Wait()
	win := window{wall: time.Since(start)}
	close(calStop)
	calWG.Wait()
	if cal != nil {
		cal.round()
	}

	for _, res := range results {
		win.busyMS += sum(res.latMS) / float64(w.clients)
		win.latMS = append(win.latMS, res.latMS...)
		win.failed += res.failed
		win.tuples += res.tuples
		if win.err == nil {
			win.err = res.err
		}
	}
	win.attempted = len(win.latMS)
	sort.Float64s(win.latMS)
	return win
}

// measure is drive between two readings of the process's allocation, GC
// and CPU counters, starting from a collected heap.
func measure(ctx context.Context, w workload, inst instance, v *verifier, tr *tracer, cal *calibrator, first int, stop stopFunc) window {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0, _ := processUsage()
	win := drive(ctx, w, inst, v, tr, cal, first, stop)
	cpu1, _ := processUsage()
	runtime.ReadMemStats(&after)
	win.allocBytes = after.TotalAlloc - before.TotalAlloc
	win.mallocs = after.Mallocs - before.Mallocs
	win.gcCycles = after.NumGC - before.NumGC
	win.cpu = cpu1 - cpu0
	return win
}

// warmups is how many ops one set-up runs before it counts as ready.
func warmups(w workload, sc scale) int {
	if sc.ops > 0 {
		return 1
	}
	return w.warmup
}

// setUp builds one instance and warms it. The returned duration is
// setup_s: construct engine or servers, generate and register relations,
// run the warm-up ops.
func setUp(ctx context.Context, w workload, sc scale, seed int64, in *inputs, v *verifier, tr *tracer) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(sc, seed, in, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	win := drive(ctx, w, inst, v, nil, nil, 0, afterOps(warmups(w, sc)))
	took := time.Since(start)
	if win.failed > 0 {
		return nil, 0, errors.Join(fmt.Errorf("warm-up: %w", win.err), inst.close())
	}
	return inst, took, nil
}

// measuredStop is the stop rule of a measured window: a fixed op count at
// smoke scale, else the timed window stretched to the ops the tail needs.
func measuredStop(sc scale, d time.Duration, minOps int) stopFunc {
	if sc.ops > 0 {
		return afterOps(sc.ops)
	}
	return afterTime(d, minOps)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, w workload, sc scale, seed int64, d time.Duration) (*report, error) {
	in, err := w.prepare(sc, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	v := newVerifier(w, in)

	// Set up several times and keep the last instance: setup_s is the median
	// cycle, so one slow start does not decide it. The cycles are too short
	// to interleave calibration rounds into, so a burst runs on either side
	// of each; set-up is then scaled by the factor over the whole run, whose
	// rounds these bursts alone are too few to steady.
	cal, err := newCalibrator(sc)
	if err != nil {
		return nil, err
	}
	var inst instance
	var setups []float64
	for range sc.setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		cal.burst()
		var took time.Duration
		if inst, took, err = setUp(ctx, w, sc, seed, in, v, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	cal.burst()

	mark := cal.mark()
	win := measure(ctx, w, inst, v, nil, cal, warmups(w, sc), measuredStop(sc, d, minOpsFor(w.tailPct)))
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	speed, parts, setupSpeed := cal.factorSince(mark), cal.partsSince(mark), cal.factorSince(0)

	rep := newReport(w, win)
	pct := pickTail(win.attempted, w.tailPct)
	tail, beyond := percentile(win.latMS, pct)
	p50 := median(win.latMS)
	throughput := ratio(float64(win.tuples)/1e6, win.busyMS/1e3)
	rep.notef("latency_tail_ms is p%d of %d ops (%d beyond it); setup_s is the median of %d set-ups",
		pct, win.attempted, beyond, len(setups))
	rep.notef("host times are at reference speed: the calibration kernel took %.3fx its reference time in the window (%.3f / %.3f / %.3f ms over %d rounds) and %.3fx over the whole run, which scales set-up",
		speed, parts[0], parts[1], parts[2], cal.mark()-mark, setupSpeed)
	rep.notef("as the wall clock read them: setup %.6f s, p50 %.6f ms, tail %.6f ms, %.6f Mtuples/s",
		median(setups), p50, tail, throughput)
	rep.set("setup_s", median(setups)/setupSpeed)
	rep.set("latency_p50_ms", p50/speed)
	rep.set("latency_tail_ms", tail/speed)
	rep.set("mtuples_per_s", throughput*speed)
	rep.set("alloc_mb_per_op", win.perOp(float64(win.allocBytes))/1e6)
	rep.set("allocs_per_op", win.perOp(float64(win.mallocs)))
	rep.set("sim_ms_per_op", v.mean(func(o observation) float64 { return o.simMS }))
	return rep, nil
}
