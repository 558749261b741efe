// Package httpapi serves the /v1 HTTP surface over one service.Service.
// apujoind mounts it in both roles: over a local engine (optionally sharded
// in-process), and with -cluster over a router that fans out to remote
// apujoind shard servers. One handler, one wire contract (documented in
// docs/API.md), three deployment shapes — and the handler never asks which
// one it serves: it validates requests into typed specs, and the service's
// backend decides how to run them.
//
// Success responses use the unified envelope {"result": …}; failures
// return {"error": {"code", "message"}} with a stable machine-readable
// code. Cluster-specific failures surface as code "shard_down" with HTTP
// 503: a query that needs a downed shard fails fast and structured, never
// by hanging.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"apujoin/internal/catalog"
	"apujoin/internal/cluster"
	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/service"
	"apujoin/internal/service/api"
)

// Config bounds what the HTTP surface accepts.
type Config struct {
	// MaxTuples is the largest accepted relation size (generated or
	// uploaded).
	MaxTuples int
	// MaxBody bounds every request body via http.MaxBytesReader; oversize
	// bodies get a structured 413.
	MaxBody int64
}

func (c *Config) setDefaults() {
	if c.MaxTuples <= 0 {
		c.MaxTuples = 1 << 24
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 32 << 20
	}
}

// wireOptions are the run-option fields a join and a pipeline request
// share on the wire.
type wireOptions struct {
	Algo, Scheme, Arch      string
	Separate, Grouping      bool
	Delta                   float64
	CountOnly, PerPartition bool
}

// parseOptions turns the shared wire fields into run options. algo=auto
// hands algorithm and scheme to the planner (the plan cache amortizes the
// decision across repeated shapes) and conflicts with an explicit scheme.
// An option set core.Options.Validate rejects (a δ below cost.MinDelta,
// coarsepl without phj) fails here, at submit, not as a failed query.
// per_partition is the cluster transport: a shard server — a sharded
// engine — answers it with the raw per-partition result vectors. An
// unsharded engine has no grid to report, and a router is not a shard
// server (chaining routers is not supported).
func parseOptions(w wireOptions, svc *service.Service) (opt core.Options, auto, keepPartitions bool, err error) {
	auto = strings.EqualFold(w.Algo, "auto")
	if !auto {
		if opt.Algo, err = core.ParseAlgo(w.Algo); err != nil {
			return opt, false, false, err
		}
		if opt.Scheme, err = core.ParseScheme(w.Scheme); err != nil {
			return opt, false, false, err
		}
	} else if w.Scheme != "" {
		return opt, false, false, fmt.Errorf("algo=auto picks the scheme; drop %q", w.Scheme)
	}
	if opt.Arch, err = core.ParseArch(w.Arch); err != nil {
		return opt, false, false, err
	}
	opt.SeparateTables = w.Separate
	opt.Grouping = w.Grouping
	opt.Delta = w.Delta
	opt.CountOnly = w.CountOnly
	if err = opt.Validate(); err != nil {
		return opt, false, false, err
	}
	if w.PerPartition && !svc.ShardServer() {
		return opt, false, false, errors.New("per_partition is the cluster transport of shard servers; it needs a sharded engine (-shards >= 1), not an unsharded one or a router")
	}
	return opt, auto, w.PerPartition, nil
}

// parseJoin turns one api.JoinRequest into a service.JoinSpec. Inline
// generation fields become a validated generator spec, which the service's
// backend materializes: an engine generates the pair, a router sends the
// spec and every shard server generates the same full relations.
func parseJoin(req api.JoinRequest, cfg Config, svc *service.Service) (service.JoinSpec, error) {
	var spec service.JoinSpec
	var err error
	spec.Opt, spec.Auto, spec.KeepPartitions, err = parseOptions(wireOptions{
		Algo: req.Algo, Scheme: req.Scheme, Arch: req.Arch, Separate: req.Separate, Grouping: req.Grouping,
		Delta: req.Delta, CountOnly: req.CountOnly, PerPartition: req.PerPartition}, svc)
	if err != nil {
		return spec, err
	}
	spec.Workload = req.Workload

	if req.RName != "" || req.SName != "" {
		if req.RName == "" || req.SName == "" {
			return spec, fmt.Errorf("set both r_name and s_name or neither (r_name %q, s_name %q)", req.RName, req.SName)
		}
		if req.R != 0 || req.S != 0 || req.Sel != nil || req.Seed != nil || req.Skew != "" {
			return spec, fmt.Errorf("inline generation fields (r, s, sel, seed, skew) conflict with r_name/s_name")
		}
		spec.RName, spec.SName = req.RName, req.SName
		return spec, nil
	}

	r, err := genSpec(req.R, req.Skew, req.Seed, 0, 42, cfg.MaxTuples)
	if err != nil {
		return spec, fmt.Errorf("r: %w", err)
	}
	s, err := genSpec(req.S, req.Skew, req.Seed, 0, 42, cfg.MaxTuples)
	if err != nil {
		return spec, fmt.Errorf("s: %w", err)
	}
	sel := 1.0
	if req.Sel != nil {
		sel = *req.Sel
	}
	if sel < 0 || sel > 1 {
		return spec, fmt.Errorf("selectivity %v out of [0,1]", sel)
	}
	spec.Gen = &service.JoinGen{R: r.N, S: s.N, Dist: r.Dist, Seed: r.Seed, Sel: sel}
	return spec, nil
}

// genSpec validates one inline generator — a join side, a pipeline source
// or a registration — and applies the defaults: 1<<20 tuples, uniform keys
// and defaultSeed. Both the size and the key range are bounded by
// maxTuples: the permutation buffer scales with key_range, not n, so an
// unbounded one would let a tiny request force a multi-gigabyte allocation.
func genSpec(n int, skew string, seed *int64, keyRange int, defaultSeed int64, maxTuples int) (rel.Gen, error) {
	if n == 0 {
		n = 1 << 20
	}
	switch {
	case n < 0:
		return rel.Gen{}, fmt.Errorf("negative relation size n=%d", n)
	case n > maxTuples:
		return rel.Gen{}, fmt.Errorf("relation size %d exceeds -max-tuples %d", n, maxTuples)
	case keyRange < 0 || keyRange > maxTuples:
		return rel.Gen{}, fmt.Errorf("key_range %d out of [0, -max-tuples %d]", keyRange, maxTuples)
	}
	dist, err := rel.ParseDistribution(skew)
	if err != nil {
		return rel.Gen{}, err
	}
	g := rel.Gen{N: n, Dist: dist, Seed: defaultSeed, KeyRange: keyRange}
	if seed != nil {
		g.Seed = *seed
	}
	return g, nil
}

// parsePipeline turns an api.PipelineRequest into a service.PipelineSpec,
// resolving names later (admission time). An inline source becomes a
// validated generator spec with its positional default seed (42 + its
// declared index) resolved, so any reorder generates the same relation.
func parsePipeline(req api.PipelineRequest, cfg Config, svc *service.Service) (service.PipelineSpec, error) {
	var spec service.PipelineSpec
	var err error

	if len(req.Sources) < 2 {
		return spec, fmt.Errorf("a pipeline needs at least 2 sources (got %d)", len(req.Sources))
	}
	if len(req.Sources) > api.MaxPipelineSources {
		return spec, fmt.Errorf("pipeline of %d sources exceeds the limit of %d", len(req.Sources), api.MaxPipelineSources)
	}
	spec.Opt, spec.Auto, spec.KeepPartitions, err = parseOptions(wireOptions{
		Algo: req.Algo, Scheme: req.Scheme, Arch: req.Arch, Separate: req.Separate, Grouping: req.Grouping,
		Delta: req.Delta, CountOnly: req.CountOnly, PerPartition: req.PerPartition}, svc)
	if err != nil {
		return spec, err
	}
	spec.DeclaredOrder = req.DeclaredOrder
	spec.FirstWorkload = req.FirstWorkload

	for i, src := range req.Sources {
		if src.Name != "" {
			if src.N != 0 || src.Seed != nil || src.Skew != "" || src.KeyRange != 0 {
				return spec, fmt.Errorf("source %d of %d: generator fields (n, skew, seed, key_range) conflict with name %q",
					i+1, len(req.Sources), src.Name)
			}
			spec.Sources = append(spec.Sources, service.PipelineSource{Name: src.Name})
			continue
		}
		g, err := genSpec(src.N, src.Skew, src.Seed, src.KeyRange, 42+int64(i), cfg.MaxTuples)
		if err != nil {
			return spec, fmt.Errorf("source %d of %d: %w", i+1, len(req.Sources), err)
		}
		spec.Sources = append(spec.Sources, service.PipelineSource{Gen: &g})
	}
	return spec, nil
}

// response renders one query's report — the one rendering every route
// that reports a query uses. Times convert to milliseconds for display;
// the per_partition transports keep their raw nanosecond floats.
func response(q *service.Query) api.JoinResponse {
	rep := q.Report()
	resp := api.JoinResponse{ID: rep.ID, State: rep.State.String(), Plan: planReport(rep.Plan)}
	if rep.Err != nil {
		resp.Error = rep.Err.Error()
	}
	if res := rep.Result; res != nil {
		resp.Matches = res.Matches
		resp.TotalMS = res.TotalNS / 1e6
		resp.Phases = &api.PhaseReport{
			PartitionMS: res.PartitionNS / 1e6,
			BuildMS:     res.BuildNS / 1e6,
			ProbeMS:     res.ProbeNS / 1e6,
			MergeMS:     res.MergeNS / 1e6,
			TransferMS:  res.TransferNS / 1e6,
		}
		resp.WallMS = float64(rep.Wall.Nanoseconds()) / 1e6
	}
	for _, pr := range rep.Partitions {
		resp.Partitions = append(resp.Partitions, api.FromResult(pr))
	}
	if pipe := rep.Pipeline; pipe != nil {
		// For pipelines, total_ms covers the whole serial chain (the
		// Result and its phases describe the final step alone).
		resp.TotalMS = pipe.TotalNS / 1e6
		resp.Pipeline = pipelineReport(pipe)
	}
	return resp
}

// pipelineReport renders a pipeline's per-step report and, when it was
// kept, its per-partition transport.
func pipelineReport(pipe *service.PipelineResult) *api.PipelineReport {
	pr := &api.PipelineReport{
		Sources:               len(pipe.Order),
		Ordered:               pipe.Ordered,
		Order:                 pipe.Order,
		IntermediateTuples:    pipe.IntermediateTuples,
		IntermediateBytes:     pipe.IntermediateBytes,
		PeakIntermediateBytes: pipe.PeakIntermediateBytes,
		Replans:               pipe.Replans,
		SpilledPartitions:     pipe.SpilledPartitions,
		SpillBytes:            pipe.SpillBytes,
	}
	for _, st := range pipe.Steps {
		pr.Steps = append(pr.Steps, api.PipelineStepReport{
			Build:       st.Build,
			Probe:       st.Probe,
			BuildTuples: st.BuildTuples,
			ProbeTuples: st.ProbeTuples,
			Matches:     st.OutTuples,
			TotalMS:     st.Result.TotalNS / 1e6,
			Plan:        planReport(st.Plan),
		})
	}
	if pp := pipe.Partitions; pp != nil {
		pr.Partitions = &api.PipelineParts{PeakIntermediateBytes: pp.Peak, SpillDepth: pp.SpillDepth}
		for t, row := range pp.Steps {
			wire := make([]api.PartitionStep, len(row))
			for p, r := range row {
				wire[p] = api.PartitionStep{Result: api.FromResult(r), Plan: pp.Plans[t][p]}
			}
			pr.Partitions.Steps = append(pr.Partitions.Steps, wire)
		}
	}
	return pr
}

// planReport is a plan decision's display form, nil for none.
func planReport(pl *service.PlanInfo) *api.PlanReport {
	if pl == nil {
		return nil
	}
	cache := "miss"
	if pl.CacheHit {
		cache = "hit"
	}
	return &api.PlanReport{Algo: pl.Algo, Scheme: pl.Scheme, Cache: cache, PredictedMS: pl.PredictedNS / 1e6}
}

// bodyBufs recycles the buffers response bodies are encoded into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyBufs keeps: one huge listing must
// not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

// writeJSON encodes v compactly into a pooled buffer first and only then
// writes the status, Content-Length and body in one call, so a value that
// cannot be encoded (a NaN or ±Inf float) becomes a structured 500, never
// the success status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(errorEnvelope{Error: wireError{Code: "internal", Message: "encode response: " + err.Error()}})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
}

// resultEnvelope and errorEnvelope are the two shapes of every /v1 body.
type resultEnvelope struct {
	Result any `json:"result"`
}

type errorEnvelope struct {
	Error wireError `json:"error"`
}

type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeResult emits the unified success envelope every 2xx response uses:
//
//	{"result": <payload>}
//
// The deprecated top-level mirrors of the payload fields (kept "for one
// release" after the envelope unification) are gone: the payload lives
// under "result" and nowhere else.
func writeResult(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, resultEnvelope{Result: v})
}

// writeError emits the unified error envelope every failure path uses:
//
//	{"error": {"code": "...", "message": "..."}}
//
// "code" is a stable machine-readable identifier (bad_request, not_found,
// conflict, no_space, queue_full, closed, too_large, unavailable,
// shard_down, internal); "message" is human-readable. The deprecated
// top-level "status" mirror of the HTTP status code has been removed with
// the payload mirrors — the status is on the HTTP response itself.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorEnvelope{Error: wireError{Code: errorCode(status, err), Message: err.Error()}})
}

// errorCode derives the envelope's stable error code: sentinel errors
// first (they carry more intent than the status), the status class
// otherwise. Cluster errors come before everything — a remote shard's own
// code passes through verbatim, and a downed or unreachable shard is
// always "shard_down".
func errorCode(status int, err error) string {
	var se *cluster.ShardError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, cluster.ErrShardDown):
		return "shard_down"
	case errors.Is(err, service.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, service.ErrClosed):
		return "closed"
	case errors.Is(err, catalog.ErrNotFound):
		return "not_found"
	case errors.Is(err, catalog.ErrExists):
		return "conflict"
	case errors.Is(err, catalog.ErrNoSpace):
		return "no_space"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInsufficientStorage:
		return "no_space"
	default:
		return "internal"
	}
}

// clusterStatus maps a cluster-layer error to its HTTP status; ok is false
// for non-cluster errors. A downed or unreachable shard is 503 (clients
// retry once the shard rejoins); a shard's own structured failure passes
// its remote status through.
func clusterStatus(err error) (int, bool) {
	var se *cluster.ShardError
	if errors.As(err, &se) {
		return se.Status, true
	}
	if errors.Is(err, cluster.ErrShardDown) {
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}

// readJSON decodes one bounded JSON request body into dst with unknown
// fields rejected, writing the structured 400/413 itself on failure.
func readJSON(w http.ResponseWriter, r *http.Request, maxBody int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("bad request body: trailing data after JSON document"))
		return false
	}
	return true
}

// submitStatus maps a submission error to its HTTP status.
func submitStatus(err error) int {
	if status, ok := clusterStatus(err); ok {
		return status
	}
	switch {
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// waitResult writes the terminal response of a waited query: cluster
// failures surface as structured errors with their mapped status (a
// downed shard is a 503 "shard_down", never a hang and never a partial
// result), everything else keeps the result-envelope-with-status shape.
func waitResult(w http.ResponseWriter, r *http.Request, q *service.Query) {
	if _, err := q.Wait(r.Context()); err != nil && !isCancel(err) {
		if status, ok := clusterStatus(err); ok {
			writeError(w, status, err)
			return
		}
		writeResult(w, http.StatusInternalServerError, response(q))
		return
	}
	writeResult(w, http.StatusOK, response(q))
}

// New builds the HTTP surface over one join service.
//
// Endpoints:
//
//	POST   /v1/join        submit a join; {"wait":true} blocks for the result
//	POST   /v1/pipeline    submit a multi-way join pipeline (2..16 sources)
//	POST   /v1/batch       submit many joins in one admission transaction
//	GET    /v1/query?id=   poll one query
//	DELETE /v1/query?id=   cancel one query
//	GET    /v1/queries     list retained queries, each as GET /v1/query reports it
//	POST   /v1/relations   register a relation (generate or upload)
//	GET    /v1/relations   list registered relations with their statistics
//	DELETE /v1/relations?name=  refcounted delete
//	GET    /v1/stats       service metrics (plus shard health when clustered)
//	GET    /healthz        liveness
func New(svc *service.Service, cfg Config) http.Handler {
	cfg.setDefaults()
	mux := http.NewServeMux()

	submit := func(w http.ResponseWriter, r *http.Request, req api.JoinRequest) (*service.Query, bool) {
		spec, err := parseJoin(req, cfg, svc)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return nil, false
		}
		// The query's lifetime is the service's, not the HTTP request's:
		// a fire-and-poll submission keeps running after this handler
		// returns. A waiting client that disconnects cancels its query.
		qctx := context.Background()
		if req.Wait {
			qctx = r.Context()
		}
		q, err := svc.SubmitSpec(qctx, spec)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return nil, false
		}
		return q, true
	}

	mux.HandleFunc("POST /v1/join", func(w http.ResponseWriter, r *http.Request) {
		var req api.JoinRequest
		if !readJSON(w, r, cfg.MaxBody, &req) {
			return
		}
		q, ok := submit(w, r, req)
		if !ok {
			return
		}
		if !req.Wait {
			writeResult(w, http.StatusAccepted, response(q))
			return
		}
		waitResult(w, r, q)
	})

	mux.HandleFunc("POST /v1/pipeline", func(w http.ResponseWriter, r *http.Request) {
		var req api.PipelineRequest
		if !readJSON(w, r, cfg.MaxBody, &req) {
			return
		}
		spec, err := parsePipeline(req, cfg, svc)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		qctx := context.Background()
		if req.Wait {
			qctx = r.Context()
		}
		q, err := svc.SubmitPipeline(qctx, spec)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return
		}
		if !req.Wait {
			writeResult(w, http.StatusAccepted, response(q))
			return
		}
		waitResult(w, r, q)
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req api.BatchRequest
		if !readJSON(w, r, cfg.MaxBody, &req) {
			return
		}
		if len(req.Queries) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("batch has no queries"))
			return
		}
		specs := make([]service.JoinSpec, len(req.Queries))
		for i, jr := range req.Queries {
			if jr.Wait {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("query %d of %d: per-query wait is not supported in a batch; set the batch-level wait", i+1, len(req.Queries)))
				return
			}
			spec, err := parseJoin(jr, cfg, svc)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("query %d of %d: %w", i+1, len(req.Queries), err))
				return
			}
			specs[i] = spec
		}
		qctx := context.Background()
		if req.Wait {
			qctx = r.Context()
		}
		qs, err := svc.SubmitBatch(qctx, specs)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return
		}
		status := http.StatusAccepted
		if req.Wait {
			status = http.StatusOK
			for _, q := range qs {
				if _, err := q.Wait(r.Context()); err != nil && !isCancel(err) {
					status = http.StatusInternalServerError
					break
				}
			}
		}
		resp := api.BatchResponse{Queries: make([]api.JoinResponse, len(qs))}
		for i, q := range qs {
			resp.Queries[i] = response(q)
		}
		writeResult(w, status, resp)
	})

	mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		var req api.RelationRequest
		if !readJSON(w, r, cfg.MaxBody, &req) {
			return
		}
		info, err := registerRelation(svc, req, cfg.MaxTuples)
		if err != nil {
			writeError(w, relationStatus(err), err)
			return
		}
		writeResult(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		writeResult(w, http.StatusOK, svc.Relations())
	})

	mux.HandleFunc("DELETE /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing ?name="))
			return
		}
		info, err := svc.DropRelation(name)
		if err != nil {
			writeError(w, relationStatus(err), err)
			return
		}
		// Pins report how many in-flight queries still hold the data; the
		// name is unbound either way.
		writeResult(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		q, ok := lookupQuery(w, r, svc)
		if !ok {
			return
		}
		writeResult(w, http.StatusOK, response(q))
	})

	mux.HandleFunc("DELETE /v1/query", func(w http.ResponseWriter, r *http.Request) {
		q, ok := lookupQuery(w, r, svc)
		if !ok {
			return
		}
		// Cancellation is asynchronous: a queued query drops immediately,
		// a running one aborts at its next step boundary. The response
		// reflects whatever state the query has reached by now.
		q.Cancel()
		writeResult(w, http.StatusAccepted, response(q))
	})

	mux.HandleFunc("GET /v1/queries", func(w http.ResponseWriter, r *http.Request) {
		qs := svc.Queries()
		resps := make([]api.JoinResponse, len(qs))
		for i, q := range qs {
			resps[i] = response(q)
		}
		writeResult(w, http.StatusOK, resps)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeResult(w, http.StatusOK, svc.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeResult(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	return mux
}

// lookupQuery resolves ?id= to a retained query, writing the 400/404
// itself when it cannot.
func lookupQuery(w http.ResponseWriter, r *http.Request, svc *service.Service) (*service.Query, bool) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return nil, false
	}
	q, ok := svc.Query(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("query %d not found", id))
		return nil, false
	}
	return q, true
}

// registerRelation dispatches an api.RelationRequest to the service's
// relation surface (the cluster router, the sharded router or the single
// catalog): bulk upload when keys are present, probe generation when
// probe_of is set, build generation otherwise.
func registerRelation(svc *service.Service, req api.RelationRequest, maxTuples int) (catalog.Info, error) {
	if req.Name == "" {
		return catalog.Info{}, errors.New("missing relation name")
	}

	// An explicit "keys" array — even an empty one — is a bulk upload; a
	// generator spec omits the field entirely.
	if req.Keys != nil {
		if req.N != 0 || req.ProbeOf != "" || req.Sel != nil || req.Seed != nil || req.Skew != "" || req.KeyRange != 0 {
			return catalog.Info{}, errors.New("generator fields (n, skew, seed, key_range, probe_of, sel) conflict with keys upload")
		}
		if len(req.Keys) > maxTuples {
			return catalog.Info{}, fmt.Errorf("upload of %d tuples exceeds -max-tuples %d", len(req.Keys), maxTuples)
		}
		// rids are accepted and checked, then dropped: a relation is its
		// key column.
		if req.RIDs != nil && (len(req.RIDs) != len(req.Keys) || slices.ContainsFunc(req.RIDs, func(rid int32) bool { return rid < 0 })) {
			return catalog.Info{}, fmt.Errorf("rids must be one non-negative value per key: %d rids for %d keys", len(req.RIDs), len(req.Keys))
		}
		return svc.LoadRelation(req.Name, rel.Relation{Keys: req.Keys})
	}
	if req.RIDs != nil {
		return catalog.Info{}, errors.New("rids without keys")
	}

	g, err := genSpec(req.N, req.Skew, req.Seed, req.KeyRange, 42, maxTuples)
	if err != nil {
		return catalog.Info{}, err
	}
	if req.ProbeOf != "" {
		sel := 1.0
		if req.Sel != nil {
			sel = *req.Sel
		}
		if sel < 0 || sel > 1 {
			return catalog.Info{}, fmt.Errorf("selectivity %v out of [0,1]", sel)
		}
		return svc.RegisterProbe(req.Name, req.ProbeOf, g, sel)
	}
	if req.Sel != nil {
		return catalog.Info{}, errors.New("sel without probe_of")
	}
	return svc.RegisterGen(req.Name, g)
}

// relationStatus maps a catalog error to its HTTP status. Cluster errors
// pass their own status through — a remote shard's 507 stays a 507, a
// downed shard is a 503.
func relationStatus(err error) int {
	if status, ok := clusterStatus(err); ok {
		return status
	}
	switch {
	case errors.Is(err, catalog.ErrExists):
		return http.StatusConflict
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrNoSpace):
		return http.StatusInsufficientStorage
	default:
		return http.StatusBadRequest
	}
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled)
}
