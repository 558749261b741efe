package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"time"

	"apujoin"
	"apujoin/internal/core"
	"apujoin/internal/device"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
	"apujoin/internal/service"
	"apujoin/internal/service/api"
	"apujoin/internal/shard"
)

// runTraced measures the per-layer metrics of one workload: a short
// untraced reference window, then the same loop under a CPU profile and
// harness-side spans with counters read on both sides, then timed probes
// into single layers and the paper-fidelity runs.
func runTraced(ctx context.Context, w workload, sc scale, seed int64, d time.Duration, outDir string) (*report, error) {
	tr := newTracer()
	in, err := w.prepare(sc, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	v := newVerifier(w, in)
	inst, _, err := setUp(ctx, w, sc, seed, in, v, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil { // an early return; the error that caused it is the one to report
			inst.close()
		}
	}()

	// Both windows are calibrated like an untraced run's, so that the
	// machine drifting between them does not read as tracing overhead.
	cal, err := newCalibrator(sc)
	if err != nil {
		return nil, err
	}
	warm := warmups(w, sc)
	ref := measure(ctx, w, inst, v, nil, cal, warm, measuredStop(sc, d/4, 0))
	refP50 := median(ref.latMS) / cal.factorSince(0)

	before, err := inst.counts(ctx)
	if err != nil {
		return nil, fmt.Errorf("counts: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	mark := cal.mark()
	win := measure(ctx, w, inst, v, tr, cal, warm+ref.attempted, measuredStop(sc, d-d/4, 0))
	pprof.StopCPUProfile()
	speed := cal.factorSince(mark)
	after, err := inst.counts(ctx)
	if err != nil {
		return nil, fmt.Errorf("counts: %w", err)
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}

	rep := newReport(w, win)
	rep.attempted += ref.attempted
	rep.failed += ref.failed
	if rep.err == nil {
		rep.err = ref.err
	}

	// CPU self-time by layer and kernel step class.
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	byLayer, sampled := attribute(samples)
	for _, names := range [][]string{repoLayers, goLayers, kernelClasses} {
		for _, l := range names {
			rep.set(l+".cpu_ms_per_op", win.perOp(float64(byLayer[l]))/1e6)
		}
	}
	rep.set("bench.profile_cpu_ratio", ratio(float64(sampled), float64(win.cpu)))

	// Spans.
	spans := tr.snapshot()
	st := summarize(spans)
	rep.set("httpapi.overhead_ms", median(st.selfNS["httpapi.roundtrip"])/1e6)
	rep.set("service.exec_wall_ms", median(st.durNS["service.exec"])/1e6)
	rep.set("bench.client_codec_us", (median(st.durNS["bench.encode"])+median(st.durNS["bench.decode"]))/1e3)
	genNS := ratio(sum(st.durNS["rel.gen"]), float64(st.tuples["rel.gen"]))
	rep.set("rel.gen_ns_per_tuple", genNS)
	// Registration as the client sees it, net of the generation the server
	// did inside it.
	regNS := sum(st.durNS["register.gen"]) + sum(st.durNS["register.load"]) - genNS*float64(st.tuples["register.gen"])
	rep.set("catalog.ingest_ns_per_tuple", max(0, ratio(regNS, float64(st.tuples["register.gen"]+st.tuples["register.load"]))))

	// Counts at layer boundaries over the profiled window.
	c := after.minus(before)
	ops := float64(c.ops)
	rep.set("plan.miss_ratio", ratio(float64(c.planMisses), float64(c.planHits+c.planMisses)))
	rep.set("plan.evictions_per_op", ratio(float64(c.planEvictions), ops))
	rep.set("catalog.workload_reuses_per_op", ratio(float64(c.workloadReuses), ops))
	rep.set("cluster.requests_per_op", ratio(float64(c.clusterRequests), ops))
	rep.set("cluster.retries_per_op", ratio(float64(c.clusterRetries), ops))
	mean := func(f func(observation) float64) float64 { return v.mean(f) }
	rep.set("service.spilled_partitions_per_op", mean(func(o observation) float64 { return float64(o.spilledPartitions) }))
	rep.set("service.spill_kb_per_op", mean(func(o observation) float64 { return float64(o.spillBytes) / 1024 }))
	rep.set("service.spill_depth", mean(func(o observation) float64 { return float64(o.spillDepth) }))
	rep.set("service.peak_intermediate_kb", mean(func(o observation) float64 { return float64(o.peakIntermediateBytes) / 1024 }))
	rep.set("service.intermediate_tuples_per_op", mean(func(o observation) float64 { return float64(o.intermediates) }))
	rep.set("service.replans_per_op", mean(func(o observation) float64 { return float64(o.replans) }))
	rep.set("core.sim_partition_ms", mean(func(o observation) float64 { return o.simPartitionMS }))
	rep.set("core.sim_build_ms", mean(func(o observation) float64 { return o.simBuildMS }))
	rep.set("core.sim_probe_ms", mean(func(o observation) float64 { return o.simProbeMS }))
	simMS := mean(func(o observation) float64 { return o.simMS })
	rep.set("core.host_ns_per_sim_ns", ratio(refP50, simMS))
	if w.name == "pipeline_spill" && sc.ops == 0 {
		if miss := rep.values["plan.miss_ratio"]; miss > 0.01 {
			rep.fail(fmt.Errorf("plan.miss_ratio %.3f: the pipeline fell off the warm side of the plan cache", miss))
		}
	}

	// Process.
	rep.set("bench.cpu_util_cores", ratio(float64(win.cpu), float64(win.wall)))
	_, rss := processUsage()
	rep.set("bench.peak_rss_mb", float64(rss)/1e6)
	rep.set("go.gc_cycles_per_op", win.perOp(float64(win.gcCycles)))
	rep.set("bench.trace_overhead_pct", 100*(ratio(median(win.latMS)/speed, refP50)-1))
	rep.set("bench.speed_factor", speed)
	rep.notef("profiled %d ops in %.1f s after a %d-op untraced reference window", win.attempted, win.wall.Seconds(), ref.attempted)

	if err := probeLayers(ctx, rep, tr, sc, seed, in); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := paperFidelity(rep, sc, in.sources[0][0], in.sources[0][1]); err != nil {
		return nil, fmt.Errorf("paper fidelity: %w", err)
	}
	if outDir != "" {
		if err := writeTrace(outDir, tr.snapshot()); err != nil {
			return nil, err
		}
		if err := writeFile(outDir, w.name+".cpu.pprof", prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed returns the median wall time, in nanoseconds, of one call of fn:
// each of the repetitions times iters back-to-back calls. It repeats ten
// times, but settles for three once two seconds have gone, so a probe of a
// 2^20-tuple join does not take a minute.
func timed(tr *tracer, name string, sc scale, iters int, fn func() error) (float64, error) {
	reps, floor := 10, 3
	if sc.ops > 0 {
		reps, floor = 1, 1
	}
	var ns []float64
	began := time.Now()
	for r := 0; r < reps && (r < floor || time.Since(began) < 2*time.Second); r++ {
		sp := tr.begin(name, -1, -1)
		t0 := time.Now()
		for range iters {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		ns = append(ns, float64(time.Since(t0))/float64(iters))
		tr.end(sp)
	}
	return median(ns), nil
}

// joinOptions are join_large's per-op options as core.Options.
func joinOptions(sc scale, algo core.Algo, scheme core.Scheme) core.Options {
	return core.Options{Algo: algo, Scheme: scheme, Delta: sc.joinDelta, PilotItems: joinPilotItems}
}

// probeLayers times public entry points of single layers on the workload's
// own first input pair, and a few fixed service shapes no workload covers.
func probeLayers(ctx context.Context, rep *report, tr *tracer, sc scale, seed int64, in *inputs) error {
	r, s := in.sources[0][0], in.sources[0][1]
	nr, ns := float64(r.Len()), float64(s.Len())
	want := oracle.PipelineCount([]rel.Relation{r, s})
	pool := sched.NewPool(0)
	defer pool.Close()

	// One result per grid partition, as a shard server would return them.
	counts := rel.KeyCounts(r)
	rparts, sparts := shard.Split(r), shard.Split(s)
	results := make([]*core.Result, shard.Partitions)
	for p := range results {
		opt := joinOptions(sc, core.PHJ, core.PL)
		opt.Pool = pool
		res, err := core.Run(rparts[p], sparts[p], opt)
		if err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
		results[p] = res
	}
	skewed := apujoin.Gen{N: s.Len(), Dist: apujoin.HighSkew, Seed: seed + 1}.Probe(r, 1.0)
	wantSkewed := oracle.PipelineCount([]rel.Relation{r, skewed})
	const dispatchItems = 1 << 20

	for _, p := range []struct {
		name  string
		unit  float64 // multiplies the nanoseconds of one call into the metric's unit
		iters int     // back-to-back calls per timing, for calls too short to time alone
		fn    func() error
	}{
		{"rel.keycounts_ns_per_tuple", 1 / nr, 1, func() error { rel.KeyCounts(r); return nil }},
		{"core.stream_materialize_ns_per_tuple", 1 / ns, 1, func() error {
			if out := core.StreamMaterialize(pool, counts, s); int64(out.Len()) != want {
				return fmt.Errorf("materialized %d tuples, the oracle counts %d", out.Len(), want)
			}
			return nil
		}},
		{"shard.split_ns_per_tuple", 1 / nr, 1, func() error { shard.Split(r); return nil }},
		{"shard.merge_us", 1e-3, 1000, func() error {
			if m := shard.MergeResults(results); m.Matches != want {
				return fmt.Errorf("merged %d matches, the oracle counts %d", m.Matches, want)
			}
			return nil
		}},
		{"api.partition_vector_codec_us", 1e-3, 100, func() error {
			wire := make([]api.PartitionResult, len(results))
			for p, res := range results {
				wire[p] = api.FromResult(res)
			}
			data, err := json.Marshal(wire)
			if err != nil {
				return err
			}
			var back []api.PartitionResult
			if err := json.Unmarshal(data, &back); err != nil {
				return err
			}
			for p := range back {
				if back[p].ToResult().TotalNS != results[p].TotalNS {
					return fmt.Errorf("partition %d did not survive the wire", p)
				}
			}
			return nil
		}},
		{"sched.dispatch_ns_per_morsel", float64(sched.MorselItems) / dispatchItems, 10, func() error {
			pool.MapRange(0, dispatchItems, func(int, int) device.Acct { return device.Acct{} })
			return nil
		}},
		{"core.high_skew_join_ms", 1e-6, 1, func() error {
			opt := joinOptions(sc, core.PHJ, core.PL)
			opt.Pool = pool
			res, err := core.Run(r, skewed, opt)
			if err == nil && res.Matches != wantSkewed {
				err = fmt.Errorf("%d matches, the oracle counts %d", res.Matches, wantSkewed)
			}
			return err
		}},
	} {
		t, err := timed(tr, p.name, sc, p.iters, p.fn)
		if err != nil {
			return err
		}
		rep.set(p.name, t*p.unit)
	}
	return probeServices(ctx, rep, tr, sc, seed, in)
}

// probeServices times four service shapes at fixed sizes that no workload
// covers: the sharded engine against the unsharded one, a sharded
// pipeline, a pipeline through the cluster router, and a batch.
func probeServices(ctx context.Context, rep *report, tr *tracer, sc scale, seed int64, in *inputs) error {
	if err := probeScaleout(ctx, rep, tr, sc, seed); err != nil {
		return err
	}
	if err := probeShardedPipeline(ctx, rep, tr, sc, seed, in); err != nil {
		return err
	}
	return probeServed(ctx, rep, tr, sc, seed)
}

// probeScaleout sets service.scaleout_ratio: host time of one PHJ-PL join
// of pipeline_spill-sized relations on 8 shards over the same join on 1.
func probeScaleout(ctx context.Context, rep *report, tr *tracer, sc scale, seed int64) error {
	var host [2]float64
	for k, shards := range []int{8, 1} {
		eng := apujoin.NewEngine(apujoin.WithShards(shards))
		_, err := eng.Register("r", apujoin.Gen{N: sc.pipe, Seed: seed})
		if err == nil {
			_, err = eng.RegisterProbe("s", "r", apujoin.Gen{N: sc.pipe, Seed: seed + 1}, 1.0)
		}
		if err == nil {
			host[k], err = timed(tr, fmt.Sprintf("service.join_shards%d", shards), sc, 1, func() error {
				_, err := eng.Join(ctx, apujoin.Ref("r"), apujoin.Ref("s"), apujoin.WithOptions(joinOptions(sc, core.PHJ, core.PL)))
				return err
			})
		}
		if err = errors.Join(err, eng.Close()); err != nil {
			return err
		}
	}
	rep.set("service.scaleout_ratio", ratio(host[0], host[1]))
	return nil
}

// probeShardedPipeline sets service.sharded_pipeline_ms: pipeline_spill's
// sources and op on 8 shards, with no budget pressure.
func probeShardedPipeline(ctx context.Context, rep *report, tr *tracer, sc scale, seed int64, in *inputs) error {
	if len(in.sources[0]) != len(pipeNames) { // any workload but pipeline_spill itself
		var err error
		if in, err = preparePipelineSpill(sc, seed, nil); err != nil {
			return err
		}
	}
	inst, err := loadPipeline(sc, in, nil, apujoin.WithShards(8))
	if err != nil {
		return err
	}
	t, err := timed(tr, "service.sharded_pipeline_ms", sc, 1, func() error {
		o, err := inst.op(ctx, 0, nil, -1)
		if err == nil && o.matches != in.want[0] {
			err = fmt.Errorf("%d matches, the oracle counts %d", o.matches, in.want[0])
		}
		return err
	})
	rep.set("service.sharded_pipeline_ms", t/1e6)
	return errors.Join(err, inst.close())
}

// probeServed sets service.cluster_pipeline_ms (a 3-source /v1/pipeline
// through the router) and service.batch_ms_per_query (a /v1/batch of 16
// joins on one server), both on cluster_small_auto-sized relations.
func probeServed(ctx context.Context, rep *report, tr *tracer, sc scale, seed int64) error {
	r := apujoin.Gen{N: sc.small, Seed: seed}.Build()
	s := apujoin.Gen{N: sc.small, Seed: seed + 1}.Probe(r, 1.0)
	u := apujoin.Gen{N: sc.small, Seed: seed + 2}.Probe(r, 1.0)
	wantPair, wantChain := oracle.PipelineCount([]rel.Relation{r, s}), oracle.PipelineCount([]rel.Relation{r, s, u})

	servers, err := startCluster()
	if err != nil {
		return err
	}
	single, err := startServer(service.Config{MaxConcurrent: 2})
	if err != nil {
		return errors.Join(err, closeServers(servers))
	}
	servers = append(servers, single)
	router, direct := newAPIClient(servers[0].url, 1), newAPIClient(single.url, 1)

	err = func() error {
		one := 1.0
		seeds := []int64{seed, seed + 1, seed + 2}
		for _, c := range []*apiClient{router, direct} {
			reqs := []api.RelationRequest{
				{Name: "r", N: sc.small, Seed: &seeds[0]},
				{Name: "s", N: sc.small, Seed: &seeds[1], ProbeOf: "r", Sel: &one},
				{Name: "u", N: sc.small, Seed: &seeds[2], ProbeOf: "r", Sel: &one},
			}
			for _, req := range reqs {
				if err := register(ctx, c, nil, req); err != nil {
					return err
				}
			}
		}
		pipeline := api.PipelineRequest{Algo: "auto", Delta: sc.autoDelta, Wait: true, Sources: []api.PipelineSource{{Name: "r"}, {Name: "s"}, {Name: "u"}}}
		t, err := timed(tr, "service.cluster_pipeline_ms", sc, 1, func() error {
			resp, _, err := call[api.JoinResponse](ctx, router, nil, -1, -1, http.MethodPost, "/v1/pipeline", pipeline)
			if err == nil && resp.Matches != wantChain {
				err = fmt.Errorf("%d matches, the oracle counts %d", resp.Matches, wantChain)
			}
			return err
		})
		if err != nil {
			return err
		}
		rep.set("service.cluster_pipeline_ms", t/1e6)

		batch := api.BatchRequest{Wait: true, Queries: make([]api.JoinRequest, 16)}
		for q := range batch.Queries {
			batch.Queries[q] = api.JoinRequest{RName: "r", SName: "s", Algo: "auto", Delta: sc.autoDelta}
		}
		t, err = timed(tr, "service.batch_ms_per_query", sc, 1, func() error {
			resp, _, err := call[api.BatchResponse](ctx, direct, nil, -1, -1, http.MethodPost, "/v1/batch", batch)
			for _, q := range resp.Queries {
				if err == nil && q.Matches != wantPair {
					err = fmt.Errorf("query %d: %d matches, the oracle counts %d", q.ID, q.Matches, wantPair)
				}
			}
			return err
		})
		rep.set("service.batch_ms_per_query", t/1e6/float64(len(batch.Queries)))
		return err
	}()
	router.hc.CloseIdleConnections()
	direct.hc.CloseIdleConnections()
	return errors.Join(err, closeServers(servers))
}

// paperFidelity runs both algorithms under the four schemes the paper
// compares on the workload's first input pair and reports PL's simulated
// gain over each. The device model is not validated against hardware, so
// the paper's "up to 53 / 35 / 28 %" over CPU-only / GPU-only / DD is a
// reference printed beside these numbers, not an error figure.
func paperFidelity(rep *report, sc scale, r, s rel.Relation) error {
	algos := []struct {
		name string
		algo core.Algo
	}{{"shj", core.SHJ}, {"phj", core.PHJ}}
	schemes := []struct {
		name   string
		scheme core.Scheme
	}{{"cpu", core.CPUOnly}, {"gpu", core.GPUOnly}, {"dd", core.DD}, {"pl", core.PL}}
	for _, a := range algos {
		sim := map[string]float64{}
		for _, sch := range schemes {
			res, err := core.Run(r, s, joinOptions(sc, a.algo, sch.scheme))
			if err != nil {
				return fmt.Errorf("%s-%s: %w", a.name, sch.name, err)
			}
			sim[sch.name] = res.TotalNS / 1e6
			rep.set(fmt.Sprintf("core.sim_ms.%s_%s", a.name, sch.name), sim[sch.name])
			if a.algo == core.PHJ && sch.scheme == core.PL {
				rep.set("mem.sim_l2_miss_ratio", ratio(float64(res.Cache.Misses), float64(res.Cache.Accesses)))
			}
		}
		for _, base := range []string{"cpu", "gpu", "dd"} {
			rep.set(fmt.Sprintf("core.%s_pl_gain_vs_%s_pct", a.name, base), 100*ratio(sim[base]-sim["pl"], sim[base]))
		}
	}
	rep.notef("paper reference for core.*_pl_gain_vs_{cpu,gpu,dd}_pct: up to 53 / 35 / 28 %% (model not validated against hardware)")
	return nil
}
