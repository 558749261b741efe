package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"apujoin/internal/cluster"
	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/service/api"
	"apujoin/internal/shard"
)

// remoteBackend keeps the partition slices in remote apujoind processes
// reached over HTTP through a cluster.Pool: each server receives one bulk
// upload of its owned partitions and answers partition jobs over the same
// /v1 surface clients use.
//
// The invariance contract survives the network hop because nothing
// numeric is computed differently: each server re-splits its upload onto
// the identical fixed grid (shard.Split is pure and order-preserving),
// plans with the full-relation workload the router measured centrally,
// executes the router's order, and returns raw float64 nanoseconds per
// partition for the router to merge in fixed partition order — exactly the
// reduction a single-process sharded engine runs.
type remoteBackend struct {
	pool *cluster.Pool
}

// newRemoteBackend builds the network tier from a service Config. Server
// addresses beyond shard.Partitions are dropped — they could never own a
// partition (apujoind -cluster rejects such configs up front).
func newRemoteBackend(cfg Config) *remoteBackend {
	addrs := cfg.Cluster
	if len(addrs) > shard.Partitions {
		addrs = addrs[:shard.Partitions]
	}
	return &remoteBackend{pool: cluster.NewPool(cluster.Config{
		Addrs:          addrs,
		Timeout:        cfg.ClusterTimeout,
		HealthInterval: cfg.HealthInterval,
		HealthFailures: cfg.HealthFailures,
		Logf:           cfg.Logf,
	})}
}

// place uploads each server's owned partitions — concatenated in ascending
// partition order, so the server's own re-split reproduces the identical
// per-partition relations (Split is pure in the keys and preserves
// relative tuple order). A server that rejects its slice (ErrNoSpace,
// transport failure, anything) fails the placement whole: the earlier
// servers AND the failing one are sent the idempotent delete — a POST whose
// reply was lost may still have committed there, and the orphan would
// answer 409 to the retry.
func (b *remoteBackend) place(sr *shardedRel, parts []rel.Relation) error {
	name, n := sr.name, b.pool.Size()
	for j := 0; j < n; j++ {
		// Non-nil even when empty: "keys": [] is a zero-tuple upload on the
		// wire, while a missing keys field would read as a generator spec.
		keys := []int32{}
		for _, p := range shard.OwnedBy(j, n) {
			keys = append(keys, parts[p].Keys...)
		}
		req := api.RelationRequest{Name: name, Keys: keys}
		if err := b.pool.Call(context.Background(), j, http.MethodPost, "/v1/relations", &req, nil); err != nil {
			for q := j; q >= 0; q-- {
				b.delete(q, name)
			}
			return fmt.Errorf("cluster: register %q on shard %d: %w", name, j, err)
		}
	}
	return nil
}

// delete best-effort drops one relation from one shard server.
func (b *remoteBackend) delete(j int, name string) {
	b.pool.Call(context.Background(), j, http.MethodDelete, "/v1/relations?name="+url.QueryEscape(name), nil, nil) //nolint:errcheck // best-effort
}

// remove asks every shard server to drop its slice, best-effort. A server
// that is down keeps an orphaned slice — a documented failure mode:
// re-registering the name may answer 409 from the recovered server until
// the delete is re-issued (DELETE /v1/relations is idempotent on the
// router).
//
// A cluster router keeps no slices and no entries on its records, so its
// pins read 0 and its queries pin nothing: each shard server binds its own
// slices when the query's request reaches it, so a clustered query may read
// each server's slices as of a different moment (docs/OPERATIONS.md).
func (b *remoteBackend) remove(sr *shardedRel) {
	for j := 0; j < b.pool.Size(); j++ {
		b.delete(j, sr.name)
	}
}

// bindJoin builds the wire request of a clustered join from its spec —
// the one builder for named, generated and programmatic joins alike. A
// generator travels as its spec and every server generates the same full
// relations from it; an inline relation cannot travel.
func (b *remoteBackend) bindJoin(j *joinJob, sp JoinSpec) error {
	j.req = api.JoinRequest{RName: sp.RName, SName: sp.SName,
		Separate: sp.Opt.SeparateTables, Grouping: sp.Opt.Grouping, Delta: sp.Opt.Delta, CountOnly: sp.Opt.CountOnly}
	j.req.Algo, j.req.Scheme, j.req.Arch = wireAlgo(sp.Auto, sp.Opt)
	switch g := sp.Gen; {
	case g != nil:
		seed, sel := g.Seed, g.Sel
		j.req.R, j.req.S, j.req.Skew, j.req.Seed, j.req.Sel = g.R, g.S, g.Dist.String(), &seed, &sel
	case sp.RName == "" || sp.SName == "":
		return fmt.Errorf("service: a clustered service joins registered or generated relations, not inline ones; reference both sides by name or pass a generator (r %q, s %q)", sp.RName, sp.SName)
	}
	return nil
}

// wireAlgo names a query's algorithm, scheme and architecture on the wire:
// "auto" and no scheme when the planner decides. The planner never picks
// the architecture, so arch is always carried.
func wireAlgo(auto bool, opt core.Options) (algo, scheme, arch string) {
	if auto {
		return "auto", "", api.ArchName(opt.Arch)
	}
	return api.AlgoName(opt.Algo), api.SchemeName(opt.Scheme), api.ArchName(opt.Arch)
}

// fanOut posts req to path on every shard server at once and returns the
// responses in server order. Fail-fast: a marked-down shard rejects the
// query before any request is sent (cluster.ErrShardDown, mapped to a
// structured 503 by the HTTP layer), and each in-flight request is bounded
// by the pool's per-request timeout — a dead shard can fail the query,
// never hang it. what names the operation in errors.
func (b *remoteBackend) fanOut(ctx context.Context, what, path string, req any) ([]*api.JoinResponse, error) {
	if err := b.pool.RequireAllUp(); err != nil {
		return nil, err
	}
	n := b.pool.Size()
	resps := make([]*api.JoinResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//apulint:ignore nakedgo(network fan-out: one HTTP call per shard server, joined by wg.Wait before any result is read; the CPU-parallel work runs on each server's pool)
		go func(i int) {
			defer wg.Done()
			var resp api.JoinResponse
			if err := b.pool.Call(ctx, i, http.MethodPost, path, req, &resp); err != nil {
				errs[i] = err
				return
			}
			resps[i] = &resp
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			err = validateShardResponse(resps[i])
		}
		if err != nil {
			// Lowest shard index wins: deterministic error selection.
			return nil, fmt.Errorf("cluster: %s on shard %d (%s): %w", what, i, b.pool.Addr(i), err)
		}
	}
	return resps, nil
}

// validateShardResponse checks one shard server's response reports a
// finished query.
func validateShardResponse(resp *api.JoinResponse) error {
	if resp.State != "done" {
		if resp.Error != "" {
			return fmt.Errorf("query %s: %s", resp.State, resp.Error)
		}
		return fmt.Errorf("query finished in state %q", resp.State)
	}
	return nil
}

// runJoin fans one join out to every shard server. Every server computes
// all the fixed grid partitions it can (its owned partitions from resident
// data; inline requests regenerate everything); partition p is read from
// its owner's vector, so each number is read exactly once. The join
// transport carries no per-partition planner decisions, so a clustered
// join reports no PlanInfo (each server's own reply does).
func (b *remoteBackend) runJoin(ctx context.Context, j *joinJob) ([]*core.Result, []*PlanInfo, error) {
	req := j.req
	req.Wait = true
	req.PerPartition = true
	if j.workload != nil {
		req.Workload = j.workload
	}
	resps, err := b.fanOut(ctx, "join", "/v1/join", &req)
	if err != nil {
		return nil, nil, err
	}
	n := len(resps)
	for i, resp := range resps {
		if len(resp.Partitions) != shard.Partitions {
			return nil, nil, fmt.Errorf("cluster: join on shard %d (%s): returned %d per-partition results, want %d (is the shard server running with -shards >= 1?)",
				i, b.pool.Addr(i), len(resp.Partitions), shard.Partitions)
		}
	}
	parts := make([]*core.Result, shard.Partitions)
	for p := range parts {
		parts[p] = resps[shard.Owner(p, n)].Partitions[p].ToResult()
	}
	return parts, nil, nil
}

// bindPipeline builds the wire request of a clustered pipeline from its
// spec, sources still in declared order. A generated source travels as its
// spec, seed included, so reordering never changes what a server
// generates; an inline relation cannot travel.
func (b *remoteBackend) bindPipeline(j *pipeJob, sp PipelineSpec) error {
	if n := len(sp.Sources); n > api.MaxPipelineSources {
		return fmt.Errorf("service: pipeline of %d sources exceeds the maximum of %d", n, api.MaxPipelineSources)
	}
	j.req = api.PipelineRequest{Separate: sp.Opt.SeparateTables, Grouping: sp.Opt.Grouping, Delta: sp.Opt.Delta, CountOnly: sp.Opt.CountOnly}
	j.req.Algo, j.req.Scheme, j.req.Arch = wireAlgo(sp.Auto, sp.Opt)
	for i, src := range sp.Sources {
		ws := api.PipelineSource{Name: src.Name}
		switch g := src.Gen; {
		case g != nil:
			seed := g.Seed
			ws = api.PipelineSource{N: g.N, Skew: g.Dist.String(), Seed: &seed, KeyRange: g.KeyRange}
		case src.Name == "":
			return fmt.Errorf("service: pipeline source %d: a clustered service pipelines registered or generated relations, not inline ones", i+1)
		}
		j.req.Sources = append(j.req.Sources, ws)
	}
	return nil
}

// runPipeline fans one pipeline out to every shard server — sources
// pre-reordered and declared_order set, so every server executes the
// router's centrally chosen order — and decodes the raw per-partition,
// per-step results, each partition read from its owner.
func (b *remoteBackend) runPipeline(ctx context.Context, j *pipeJob) (*PipelinePartitions, error) {
	req := j.req
	req.Sources = make([]api.PipelineSource, len(j.order.order))
	for i, idx := range j.order.order {
		req.Sources[i] = j.req.Sources[idx]
	}
	req.DeclaredOrder = true
	req.Wait = true
	req.PerPartition = true
	req.FirstWorkload = j.wFirst

	resps, err := b.fanOut(ctx, "pipeline", "/v1/pipeline", &req)
	if err != nil {
		return nil, err
	}
	nSteps := len(j.sources) - 1
	for i, resp := range resps {
		if err := validateShardPipeline(resp, nSteps); err != nil {
			return nil, fmt.Errorf("cluster: pipeline on shard %d (%s): %w", i, b.pool.Addr(i), err)
		}
	}
	n := len(resps)
	pp := newPipelinePartitions(nSteps, shard.Partitions)
	for p := 0; p < shard.Partitions; p++ {
		wire := resps[shard.Owner(p, n)].Pipeline.Partitions
		for t := 0; t < nSteps; t++ {
			pp.Steps[t][p], pp.Plans[t][p] = wire.Steps[t][p].Result.ToResult(), wire.Steps[t][p].Plan
		}
		pp.Peak[p], pp.SpillDepth[p] = wire.PeakIntermediateBytes[p], wire.SpillDepth[p]
	}
	return pp, nil
}

// validateShardPipeline checks one shard server's pipeline response
// carries the full per-partition, per-step transport for an nSteps chain.
func validateShardPipeline(resp *api.JoinResponse, nSteps int) error {
	if resp.Pipeline == nil || resp.Pipeline.Partitions == nil {
		return fmt.Errorf("returned no per-partition pipeline results (is the shard server running with -shards >= 1?)")
	}
	pp := resp.Pipeline.Partitions
	if len(pp.Steps) != nSteps {
		return fmt.Errorf("returned %d pipeline steps, want %d", len(pp.Steps), nSteps)
	}
	for t, row := range pp.Steps {
		if len(row) != shard.Partitions {
			return fmt.Errorf("step %d: returned %d per-partition results, want %d", t+1, len(row), shard.Partitions)
		}
	}
	if len(pp.PeakIntermediateBytes) != shard.Partitions || len(pp.SpillDepth) != shard.Partitions {
		return fmt.Errorf("returned %d peak and %d spill-depth gauges, want %d of each",
			len(pp.PeakIntermediateBytes), len(pp.SpillDepth), shard.Partitions)
	}
	return nil
}

// planWhole has no planner to offer: a cluster plans on its shard servers.
func (b *remoteBackend) planWhole(context.Context, rel.Relation, rel.Relation, core.Options, *plan.Workload) (*core.Plan, bool, error) {
	return nil, false, errors.New("service: a clustered service plans on its shard servers; run an external join with an explicit algorithm and scheme")
}

// stats adds the per-shard health and latency gauges. Capacity and peak
// stay 0 — the residency budgets are enforced by the remote shard
// catalogs, visible in each server's own /v1/stats.
func (b *remoteBackend) stats(st *Stats) {
	rep := b.pool.Report()
	st.Cluster = &rep
}

func (b *remoteBackend) close() { b.pool.Close() }
