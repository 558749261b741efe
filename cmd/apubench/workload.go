package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"apujoin"
	"apujoin/internal/core"
	"apujoin/internal/httpapi"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
	"apujoin/internal/service"
	"apujoin/internal/service/api"
)

// scale sizes the workloads. The smoke scale shrinks everything about a
// hundredfold so the whole suite runs inside go test.
type scale struct {
	large    int   // join_large: tuples per side
	pipe     int   // pipeline_spill: tuples of r, s and u (v has a quarter)
	headroom int64 // pipeline_spill: catalog budget above the four registered relations
	small    int   // cluster_small_auto and plan_cold: tuples of r
	bulk     int   // cluster_small_auto: tuples of the set-up bulk upload
	probes   int   // plan_cold: distinct probe relations, cycled through the plan cache
	setups   int   // set-up cycles whose median is setup_s
	ops      int   // > 0: a fixed op count replaces the timed window and every warm-up is one op
	// joinDelta and autoDelta are the ratio-grid granularity of the explicit
	// PHJ-PL joins and of the auto-planned ops (0 keeps the engine's default).
	// A ratio search or a plan-cache miss costs tens of milliseconds whatever
	// the relation sizes, so the smoke scale coarsens the grid as it shrinks
	// everything else.
	joinDelta, autoDelta float64
}

var (
	fullScale  = scale{large: 1 << 20, pipe: 1 << 17, headroom: 256 << 10, small: 4096, bulk: 1 << 18, probes: 192, setups: 5, joinDelta: 0.05}
	smokeScale = scale{large: 1 << 11, pipe: 1 << 10, headroom: 2 << 10, small: 256, bulk: 1 << 10, probes: 2, setups: 1, ops: 2, joinDelta: 0.5, autoDelta: 0.5}
)

// inputs are a workload's relations, generated locally from the seed so the
// harness knows every expected answer before the program sees a request.
type inputs struct {
	sources [][]rel.Relation // sources[k]: the relations of distinct input k, in join order
	want    []int64          // oracle match count of input k
	tuples  []int64          // Σ source tuples of input k
	budget  int64            // pipeline_spill: the engine's catalog capacity
	bulk    rel.Relation     // cluster_small_auto: the set-up upload
}

func (in *inputs) add(sources ...rel.Relation) {
	var n int64
	for _, r := range sources {
		n += int64(r.Len())
	}
	in.sources = append(in.sources, sources)
	in.tuples = append(in.tuples, n)
	// PipelineCount is the oracle's map-based count; JoinCount's nested loop
	// is out of reach at 2^20 tuples a side.
	in.want = append(in.want, oracle.PipelineCount(sources))
}

// gen times one local generation, the measurement behind rel.gen_ns_per_tuple.
func gen(tr *tracer, build func() rel.Relation) rel.Relation {
	sp := tr.begin("rel.gen", -1, -1)
	r := build()
	tr.endTuples(sp, int64(r.Len()))
	return r
}

// observation is what one operation reports back for verification and for
// the per-layer counts.
type observation struct {
	input   int // which distinct input the op ran on
	matches int64
	simMS   float64 // simulated total, the paper's clock

	simPartitionMS, simBuildMS, simProbeMS float64

	spilledPartitions, spillBytes        int64
	spillDepth                           int
	peakIntermediateBytes, intermediates int64
	replans                              int64
}

// layerCounts are cumulative counters read where layers meet. ops is how
// many operations they cover, so a delta of two readings gives per-op rates.
type layerCounts struct {
	ops                                 int64
	planHits, planMisses, planEvictions int64
	workloadReuses                      int64
	clusterRequests, clusterRetries     int64
}

func (c layerCounts) minus(o layerCounts) layerCounts {
	return layerCounts{
		ops: c.ops - o.ops, planHits: c.planHits - o.planHits, planMisses: c.planMisses - o.planMisses,
		planEvictions: c.planEvictions - o.planEvictions, workloadReuses: c.workloadReuses - o.workloadReuses,
		clusterRequests: c.clusterRequests - o.clusterRequests, clusterRetries: c.clusterRetries - o.clusterRetries,
	}
}

func (c *layerCounts) addStats(st service.Stats) {
	c.planHits += st.PlanHits
	c.planMisses += st.PlanMisses
	c.planEvictions += st.PlanEvictions
	c.workloadReuses += st.Catalog.WorkloadReuses
	if st.Cluster != nil {
		for _, sh := range st.Cluster.Shards {
			c.clusterRequests += sh.Requests
			c.clusterRetries += sh.Retries
		}
	}
}

// instance is one set-up workload: engine or servers up, relations
// registered. The harness warms it, drives ops through it and closes it.
type instance interface {
	// op runs operation i, recording its spans under parent.
	op(ctx context.Context, i int, tr *tracer, parent int) (observation, error)
	counts(ctx context.Context) (layerCounts, error)
	close() error
}

// workload is one fixed traffic shape. All four are closed loops: a client
// sends its next request when the previous reply is verified. Why each was
// chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name    string
	clients int
	warmup  int
	tailPct int // the fixed tail percentile of latency_tail_ms
	prepare func(sc scale, seed int64, tr *tracer) (*inputs, error)
	setup   func(sc scale, seed int64, in *inputs, tr *tracer) (instance, error)
	// check rejects an op that left the regime the workload exists to measure.
	check func(o observation) error
}

var workloads = []workload{
	{
		name: "join_large", clients: 1, warmup: 3, tailPct: 75,
		prepare: prepareJoinLarge, setup: setupJoinLarge,
	},
	{
		name: "pipeline_spill", clients: 1, warmup: 3, tailPct: 90,
		prepare: preparePipelineSpill, setup: setupPipelineSpill,
		check: func(o observation) error {
			if o.spilledPartitions == 0 || o.spillDepth != 0 {
				return fmt.Errorf("left the depth-0 spill regime: %d spilled partitions, depth %d", o.spilledPartitions, o.spillDepth)
			}
			return nil
		},
	},
	{
		name: "cluster_small_auto", clients: 2, warmup: 50, tailPct: 99,
		prepare: prepareClusterSmall, setup: setupClusterSmall,
	},
	{
		name: "plan_cold", clients: 2, warmup: 8, tailPct: 95,
		prepare: preparePlanCold, setup: setupPlanCold,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fromResult(res *core.Result) observation {
	return observation{
		matches: res.Matches, simMS: res.TotalNS / 1e6,
		simPartitionMS: res.PartitionNS / 1e6, simBuildMS: res.BuildNS / 1e6, simProbeMS: res.ProbeNS / 1e6,
	}
}

// ---- join_large ----

func prepareJoinLarge(sc scale, seed int64, tr *tracer) (*inputs, error) {
	r := gen(tr, apujoin.Gen{N: sc.large, Seed: seed}.Build)
	s := gen(tr, func() rel.Relation { return apujoin.Gen{N: sc.large, Seed: seed + 1}.Probe(r, 1.0) })
	in := &inputs{}
	in.add(r, s)
	return in, nil
}

// joinPilotItems is the pilot size of join_large's op; with the scale's
// joinDelta it is also what the explicit PHJ-PL probes and the
// paper-fidelity runs use, so their PHJ-PL is the op itself.
const joinPilotItems = 1 << 13

type engineJoin struct {
	eng   *apujoin.Engine
	delta float64
}

func setupJoinLarge(sc scale, seed int64, _ *inputs, tr *tracer) (instance, error) {
	eng := apujoin.NewEngine()
	sp := tr.begin("register.gen", -1, -1)
	_, err := eng.Register("r", apujoin.Gen{N: sc.large, Seed: seed})
	if err == nil {
		_, err = eng.RegisterProbe("s", "r", apujoin.Gen{N: sc.large, Seed: seed + 1}, 1.0)
	}
	tr.endTuples(sp, 2*int64(sc.large))
	if err != nil {
		return nil, errors.Join(err, eng.Close())
	}
	return &engineJoin{eng: eng, delta: sc.joinDelta}, nil
}

func (e *engineJoin) op(ctx context.Context, i int, tr *tracer, parent int) (observation, error) {
	sp := tr.begin("service.exec", parent, int64(i))
	res, err := e.eng.Join(ctx, apujoin.Ref("r"), apujoin.Ref("s"),
		apujoin.WithAlgo(apujoin.PHJ), apujoin.WithScheme(apujoin.PL),
		apujoin.WithDelta(e.delta), apujoin.WithPilotItems(joinPilotItems))
	tr.end(sp)
	if err != nil {
		return observation{}, err
	}
	return fromResult(res), nil
}

// counts is all zeros: the op names its algorithm and scheme, so no planner,
// plan cache or cluster transport is involved.
func (e *engineJoin) counts(context.Context) (layerCounts, error) { return layerCounts{}, nil }
func (e *engineJoin) close() error                                { return e.eng.Close() }

// ---- pipeline_spill ----

var pipeNames = []string{"r", "s", "u", "v"}

func preparePipelineSpill(sc scale, seed int64, tr *tracer) (*inputs, error) {
	r := gen(tr, apujoin.Gen{N: sc.pipe, Seed: seed}.Build)
	probe := func(n int, seed int64, sel float64) rel.Relation {
		return gen(tr, func() rel.Relation { return apujoin.Gen{N: n, Seed: seed}.Probe(r, sel) })
	}
	in := &inputs{}
	in.add(r, probe(sc.pipe, seed+1, 1.0), probe(sc.pipe, seed+2, 1.0), probe(sc.pipe/4, seed+3, 0.5))

	// The budget is what the four relations occupy, read off an
	// unconstrained engine, plus headroom smaller than the first
	// intermediate: the pipeline must spill, and no deeper than level 0.
	eng := apujoin.NewEngine()
	in.budget = sc.headroom
	for k, src := range in.sources[0] {
		info, err := eng.Load(pipeNames[k], src)
		if err != nil {
			return nil, errors.Join(err, eng.Close())
		}
		in.budget += info.Bytes
	}
	return in, eng.Close()
}

type enginePipeline struct {
	eng        *apujoin.Engine
	in         *inputs
	delta      float64
	shadow     *service.Service // counts: the same ops on a service whose Stats can be read
	shadowRuns int64
}

func setupPipelineSpill(sc scale, _ int64, in *inputs, tr *tracer) (instance, error) {
	return loadPipeline(sc, in, tr, apujoin.CatalogCapacity(in.budget))
}

// loadPipeline starts an engine and bulk-loads the four pipeline sources.
func loadPipeline(sc scale, in *inputs, tr *tracer, opts ...apujoin.EngineOption) (*enginePipeline, error) {
	eng := apujoin.NewEngine(opts...)
	for k, src := range in.sources[0] {
		sp := tr.begin("register.load", -1, -1)
		_, err := eng.Load(pipeNames[k], src)
		tr.endTuples(sp, int64(src.Len()))
		if err != nil {
			return nil, errors.Join(err, eng.Close())
		}
	}
	return &enginePipeline{eng: eng, in: in, delta: sc.autoDelta}, nil
}

func fromPipeline(pr *service.PipelineResult) observation {
	o := observation{
		matches: pr.Final.Matches, simMS: pr.TotalNS / 1e6,
		spilledPartitions: pr.SpilledPartitions, spillBytes: pr.SpillBytes, spillDepth: pr.SpillDepth,
		peakIntermediateBytes: pr.PeakIntermediateBytes, intermediates: pr.IntermediateTuples, replans: pr.Replans,
	}
	for _, st := range pr.Steps {
		o.simPartitionMS += st.Result.PartitionNS / 1e6
		o.simBuildMS += st.Result.BuildNS / 1e6
		o.simProbeMS += st.Result.ProbeNS / 1e6
	}
	return o
}

func (e *enginePipeline) op(ctx context.Context, i int, tr *tracer, parent int) (observation, error) {
	p := apujoin.Pipeline{DeclaredOrder: true}
	for _, name := range pipeNames {
		p.Sources = append(p.Sources, apujoin.Ref(name))
	}
	sp := tr.begin("service.exec", parent, int64(i))
	pr, err := e.eng.JoinPipeline(ctx, p, apujoin.WithAuto(), apujoin.WithDelta(e.delta))
	tr.end(sp)
	if err != nil {
		return observation{}, err
	}
	return fromPipeline(pr), nil
}

// shadowOps is how many ops each counts reading adds on the shadow service.
const shadowOps = 3

// counts replays the workload on a service.Service built exactly as the
// engine builds its own, because apujoin.Engine does not expose Stats. The
// planner and plan cache are deterministic in the op sequence, so the
// shadow's hit, miss and eviction counts are the engine's.
func (e *enginePipeline) counts(ctx context.Context) (layerCounts, error) {
	if e.shadow == nil {
		e.shadow = service.New(service.Config{CatalogBytes: e.in.budget})
		for k, src := range e.in.sources[0] {
			if _, err := e.shadow.LoadRelation(pipeNames[k], src); err != nil {
				return layerCounts{}, err
			}
		}
	}
	spec := service.PipelineSpec{Auto: true, DeclaredOrder: true, Opt: core.Options{Pool: e.shadow.Pool(), Delta: e.delta}}
	for _, name := range pipeNames {
		spec.Sources = append(spec.Sources, service.PipelineSource{Name: name})
	}
	for i := 0; i < shadowOps; i++ {
		if _, err := e.shadow.RunPipeline(ctx, spec); err != nil {
			return layerCounts{}, err
		}
	}
	// RunPipeline runs outside admission and Stats.Completed does not see
	// it, so the shadow counts its own ops.
	e.shadowRuns += shadowOps
	c := layerCounts{ops: e.shadowRuns}
	c.addStats(e.shadow.Stats())
	return c, nil
}

func (e *enginePipeline) close() error {
	err := e.eng.Close()
	if e.shadow != nil {
		err = errors.Join(err, e.shadow.Close())
	}
	return err
}

// ---- HTTP plumbing shared by the two served workloads ----

// server is one apujoind-shaped process image: a service behind the /v1
// handler on a loopback listener.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan error
}

func startServer(cfg service.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(cfg)
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: httpapi.New(svc, httpapi.Config{}), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops accepting, waits for the serving goroutine, then drains the
// service.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done // http.ErrServerClosed
	return errors.Join(err, s.svc.Close())
}

func closeServers(servers []*server) error {
	var err error
	for _, s := range servers {
		err = errors.Join(err, s.close())
	}
	return err
}

// apiClient speaks the /v1 wire contract to one base URL.
type apiClient struct {
	hc   *http.Client
	base string
}

func newAPIClient(base string, clients int) *apiClient {
	return &apiClient{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 2 * time.Minute},
		base: base,
	}
}

// envelope is the unified /v1 response shape.
type envelope[T any] struct {
	Result T `json:"result"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// call makes one request and decodes its enveloped result, recording the
// client's encode, round-trip and decode spans under parent. It returns the
// round-trip span so the caller can place the server's own time inside it.
func call[T any](ctx context.Context, c *apiClient, tr *tracer, parent int, op int64, method, path string, in any) (out T, roundTrip int, err error) {
	var body io.Reader
	if in != nil {
		sp := tr.begin("bench.encode", parent, op)
		data, err := json.Marshal(in)
		tr.end(sp)
		if err != nil {
			return out, -1, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return out, -1, err
	}
	req.Header.Set("Content-Type", "application/json")

	roundTrip = tr.begin("httpapi.roundtrip", parent, op)
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(roundTrip)
	if err != nil {
		return out, roundTrip, err
	}

	sp := tr.begin("bench.decode", parent, op)
	var env envelope[T]
	err = json.Unmarshal(data, &env)
	tr.end(sp)
	switch {
	case err != nil:
		return out, roundTrip, fmt.Errorf("%s %s: %w", method, path, err)
	case env.Error != nil:
		return out, roundTrip, fmt.Errorf("%s %s: %d %s: %s", method, path, resp.StatusCode, env.Error.Code, env.Error.Message)
	case resp.StatusCode/100 != 2:
		return out, roundTrip, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return env.Result, roundTrip, nil
}

// register posts one relation and records the span catalog ingest is read
// from: register.gen when the server generates the tuples, register.load
// when they are uploaded.
func register(ctx context.Context, c *apiClient, tr *tracer, req api.RelationRequest) error {
	name, n := "register.gen", req.N
	if req.Keys != nil {
		name, n = "register.load", len(req.Keys)
	}
	sp := tr.begin(name, -1, -1)
	_, _, err := call[json.RawMessage](ctx, c, tr, sp, -1, http.MethodPost, "/v1/relations", req)
	tr.endTuples(sp, int64(n))
	return err
}

// servedJoin is a workload whose op is a waited POST /v1/join.
type servedJoin struct {
	servers []*server // front (the one clients talk to) first
	client  *apiClient
	probes  []string // op i joins r with probes[i % len(probes)]
	delta   float64
}

func (s *servedJoin) op(ctx context.Context, i int, tr *tracer, parent int) (observation, error) {
	k := i % len(s.probes)
	req := api.JoinRequest{RName: "r", SName: s.probes[k], Algo: "auto", Delta: s.delta, Wait: true}
	resp, rt, err := call[api.JoinResponse](ctx, s.client, tr, parent, int64(i), http.MethodPost, "/v1/join", req)
	if err != nil {
		return observation{}, err
	}
	if resp.State != service.Done.String() || resp.Phases == nil {
		return observation{}, fmt.Errorf("join %d finished in state %q: %s", resp.ID, resp.State, resp.Error)
	}
	tr.within("service.exec", rt, time.Duration(resp.WallMS*1e6))
	return observation{
		input: k, matches: resp.Matches, simMS: resp.TotalMS,
		simPartitionMS: resp.Phases.PartitionMS, simBuildMS: resp.Phases.BuildMS, simProbeMS: resp.Phases.ProbeMS,
	}, nil
}

// counts sums GET /v1/stats over every server: plans live on the shard
// servers, cluster traffic on the router.
func (s *servedJoin) counts(ctx context.Context) (layerCounts, error) {
	var c layerCounts
	for k, srv := range s.servers {
		st, _, err := call[service.Stats](ctx, &apiClient{hc: s.client.hc, base: srv.url}, nil, -1, -1, http.MethodGet, "/v1/stats", nil)
		if err != nil {
			return layerCounts{}, err
		}
		if k == 0 {
			c.ops = st.Completed
		}
		c.addStats(st)
	}
	return c, nil
}

func (s *servedJoin) close() error {
	s.client.hc.CloseIdleConnections()
	return closeServers(s.servers)
}

// ---- cluster_small_auto ----

func prepareClusterSmall(sc scale, seed int64, tr *tracer) (*inputs, error) {
	r := gen(tr, apujoin.Gen{N: sc.small, Seed: seed}.Build)
	s := gen(tr, func() rel.Relation { return apujoin.Gen{N: sc.small, Seed: seed + 1}.Probe(r, 1.0) })
	in := &inputs{bulk: gen(tr, apujoin.Gen{N: sc.bulk, Seed: seed + 2}.Build)}
	in.add(r, s)
	return in, nil
}

// startCluster boots two 4-shard servers and a router over them.
func startCluster() ([]*server, error) {
	var shards []*server
	var urls []string
	for range 2 {
		srv, err := startServer(service.Config{Shards: 4, MaxConcurrent: 2})
		if err != nil {
			return nil, errors.Join(err, closeServers(shards))
		}
		shards = append(shards, srv)
		urls = append(urls, srv.url)
	}
	router, err := startServer(service.Config{Cluster: urls, MaxConcurrent: 2})
	if err != nil {
		return nil, errors.Join(err, closeServers(shards))
	}
	// The router closes first: its health loop talks to the shard servers.
	return append([]*server{router}, shards...), nil
}

func setupClusterSmall(sc scale, seed int64, in *inputs, tr *tracer) (instance, error) {
	servers, err := startCluster()
	if err != nil {
		return nil, err
	}
	w := &servedJoin{servers: servers, client: newAPIClient(servers[0].url, 2), probes: []string{"s"}, delta: sc.autoDelta}
	ctx := context.Background()
	one := 1.0
	s1, s2 := seed, seed+1
	err = register(ctx, w.client, tr, api.RelationRequest{Name: "r", N: sc.small, Seed: &s1})
	if err == nil {
		err = register(ctx, w.client, tr, api.RelationRequest{Name: "s", N: sc.small, Seed: &s2, ProbeOf: "r", Sel: &one})
	}
	// The bulk upload is registered and dropped only so that set-up time
	// carries the write path: JSON decode, shard.Split, per-server upload
	// and catalog ingest.
	if err == nil {
		err = register(ctx, w.client, tr, api.RelationRequest{Name: "bulk", Keys: in.bulk.Keys, RIDs: in.bulk.RIDs})
	}
	if err == nil {
		_, _, err = call[json.RawMessage](ctx, w.client, tr, -1, -1, http.MethodDelete, "/v1/relations?name=bulk", nil)
	}
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

// ---- plan_cold ----

func planColdProbe(sc scale, seed int64, k int) apujoin.Gen {
	return apujoin.Gen{N: sc.small + 16*k, Seed: seed + 1 + int64(k)}
}

func preparePlanCold(sc scale, seed int64, tr *tracer) (*inputs, error) {
	r := gen(tr, apujoin.Gen{N: sc.small, Seed: seed}.Build)
	in := &inputs{}
	for k := 0; k < sc.probes; k++ {
		in.add(r, gen(tr, func() rel.Relation { return planColdProbe(sc, seed, k).Probe(r, 1.0) }))
	}
	return in, nil
}

func setupPlanCold(sc scale, seed int64, _ *inputs, tr *tracer) (instance, error) {
	srv, err := startServer(service.Config{MaxConcurrent: 2})
	if err != nil {
		return nil, err
	}
	w := &servedJoin{servers: []*server{srv}, client: newAPIClient(srv.url, 2), delta: sc.autoDelta}
	ctx := context.Background()
	one := 1.0
	err = register(ctx, w.client, tr, api.RelationRequest{Name: "r", N: sc.small, Seed: &seed})
	for k := 0; k < sc.probes && err == nil; k++ {
		g := planColdProbe(sc, seed, k)
		name := fmt.Sprintf("s%03d", k)
		w.probes = append(w.probes, name)
		err = register(ctx, w.client, tr, api.RelationRequest{Name: name, N: g.N, Seed: &g.Seed, ProbeOf: "r", Sel: &one})
	}
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}
