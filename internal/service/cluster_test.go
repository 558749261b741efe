// Cluster invariance tests live in the external test package: they boot
// real shard servers through internal/httpapi (which imports service), so
// an in-package test would be an import cycle.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"apujoin/internal/cluster"
	"apujoin/internal/core"
	"apujoin/internal/httpapi"
	"apujoin/internal/rel"
	"apujoin/internal/service"
	"apujoin/internal/service/api"
)

// startShardServer boots one apujoind-equivalent shard server: an
// in-process sharded engine behind the real HTTP surface.
func startShardServer(t *testing.T, shards int) *httptest.Server {
	t.Helper()
	return startShardServerBudget(t, shards, 0)
}

// startShardServerBudget is startShardServer with a catalog budget
// (CatalogBytes; <= 0 is the default).
func startShardServerBudget(t *testing.T, shards int, budget int64) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, MaxConcurrent: 2, Shards: shards, CatalogBytes: budget})
	ts := httptest.NewServer(readerAccepts(t, httpapi.New(svc, httpapi.Config{})))
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Close()
	})
	return ts
}

// readerAccepts passes a shard server's traffic through and fails the test
// when the router's one-pass reader, api.JoinResponse.DecodeEnvelope,
// declines a successful join or pipeline reply: the router would still
// decode it right, through encoding/json, and silently lose the reader.
func readerAccepts(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/join" && r.URL.Path != "/v1/pipeline" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp api.JoinResponse
		if rec.Code < 300 && !resp.DecodeEnvelope(rec.Body.Bytes()) {
			t.Errorf("the reader declines a %s reply: %s", r.URL.Path, rec.Body)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// clusterService builds a cluster-backed service over the given shard
// server URLs, with a fast health probe for test turnaround.
func clusterService(t *testing.T, addrs []string) *service.Service {
	t.Helper()
	svc := service.New(service.Config{
		Workers:        2,
		MaxConcurrent:  2,
		Cluster:        addrs,
		ClusterTimeout: 60 * time.Second,
		HealthInterval: 50 * time.Millisecond,
		HealthFailures: 2,
	})
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// registerTriple registers the shared test fixtures on a service: one
// build relation and two probes of it at different selectivities.
func registerTriple(t *testing.T, svc *service.Service) {
	t.Helper()
	if _, err := svc.RegisterGen("orders", rel.Gen{N: 24000, Seed: 7}); err != nil {
		t.Fatalf("register orders: %v", err)
	}
	if _, err := svc.RegisterProbe("lineitem", "orders", rel.Gen{N: 30000, Seed: 8}, 0.8); err != nil {
		t.Fatalf("register lineitem: %v", err)
	}
	if _, err := svc.RegisterProbe("returns", "orders", rel.Gen{N: 9000, Seed: 9}, 0.3); err != nil {
		t.Fatalf("register returns: %v", err)
	}
}

func ddOptions(t *testing.T, algo string) core.Options {
	t.Helper()
	a, err := core.ParseAlgo(algo)
	if err != nil {
		t.Fatal(err)
	}
	return core.Options{Algo: a, Scheme: core.DD, Delta: 0.1}
}

// TestClusterInvariance is the network half of the server-count-invariance
// contract: a cluster of 1, 2 and 4 remote shard servers reports results
// bit-identical — match counts, every simulated float, pipeline gauges and
// spill accounting — to the in-process sharded engine, whether a shard
// server builds a registered build side or probes the table it kept. Every
// server and the reference get the same catalog budget, which one pipeline
// overflows: which partitions spill must not depend on where they live.
func TestClusterInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 7 shard servers")
	}
	ctx := context.Background()

	// The triple and three 40 000-tuple relations hold 1 464 000 bytes; the
	// rest leaves each grid partition ~32 KB for intermediates: room for
	// the triple pipeline's ~24 KB, not for the 40 KB of a selectivity-1
	// step over the large ones.
	const budget = 1_720_000
	register := func(t *testing.T, svc *service.Service) {
		t.Helper()
		registerTriple(t, svc)
		if _, err := svc.RegisterGen("big", rel.Gen{N: 40000, Seed: 11}); err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"big1", "big2"} {
			if _, err := svc.RegisterProbe(name, "big", rel.Gen{N: 40000, Seed: int64(12 + i)}, 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := service.New(service.Config{Workers: 2, MaxConcurrent: 2, Shards: 1, CatalogBytes: budget})
	t.Cleanup(func() { _ = ref.Close() })
	register(t, ref)

	joinSpecs := []service.JoinSpec{
		{RName: "orders", SName: "lineitem", Opt: ddOptions(t, "phj")},
		{RName: "orders", SName: "returns", Opt: ddOptions(t, "shj")},
		{RName: "orders", SName: "lineitem", Auto: true},
		// The planner picks algorithm and scheme, never the architecture:
		// the router's wire request must carry arch under auto too.
		{RName: "orders", SName: "lineitem", Auto: true, Opt: core.Options{Arch: core.Discrete}},
		// A generator travels as its spec; every server generates the pair.
		{Gen: &service.JoinGen{R: 20000, S: 16000, Dist: rel.HighSkew, Seed: 3, Sel: 0.7}, Opt: ddOptions(t, "phj")},
	}
	gens := []rel.Gen{{N: 4000, KeyRange: 4000, Seed: 7}, {N: 5000, KeyRange: 4000, Seed: 8}}
	pipeSpecs := []service.PipelineSpec{
		{Sources: []service.PipelineSource{{Name: "orders"}, {Name: "lineitem"}, {Name: "returns"}}, Auto: true},
		// Named and generated sources together (in declaration order: a
		// generated source carries no ingest statistics to order by).
		{Sources: []service.PipelineSource{{Gen: &gens[0]}, {Name: "orders"}, {Gen: &gens[1]}}, Opt: ddOptions(t, "shj")},
		{Sources: []service.PipelineSource{{Name: "big"}, {Name: "big1"}, {Name: "big2"}}, Opt: ddOptions(t, "phj")},
	}
	const spilling = 2 // pipeSpecs' index of the one the budget cannot hold

	refJoins := make([]*core.Result, len(joinSpecs))
	for i, sp := range joinSpecs {
		res, err := ref.RunJoin(ctx, sp)
		if err != nil {
			t.Fatalf("reference join %d: %v", i, err)
		}
		refJoins[i] = res
	}
	refPipes := make([]*service.PipelineResult, len(pipeSpecs))
	for i, sp := range pipeSpecs {
		res, err := ref.RunPipeline(ctx, sp)
		if err != nil {
			t.Fatalf("reference pipeline %d: %v", i, err)
		}
		refPipes[i] = res
	}
	for i, res := range refPipes {
		if spilled := res.SpilledPartitions > 0; spilled != (i == spilling) {
			t.Fatalf("reference pipeline %d spilled %d partitions; only pipeline %d should spill", i, res.SpilledPartitions, spilling)
		}
	}

	for _, servers := range []int{1, 2, 4} {
		addrs := make([]string, servers)
		for i := range addrs {
			// Shard-server-side shard counts deliberately vary: every count
			// >= 1 must be the same engine.
			addrs[i] = startShardServerBudget(t, 1+i%2, budget).URL
		}
		csvc := clusterService(t, addrs)
		register(t, csvc)

		// Twice: the second pass probes the tables the shard servers kept
		// for the registered build sides on the first.
		for _, pass := range []string{"cold", "warm"} {
			for i, sp := range joinSpecs {
				res, err := csvc.RunJoin(ctx, sp)
				if err != nil {
					t.Fatalf("%d servers: %s join %d: %v", servers, pass, i, err)
				}
				if !reflect.DeepEqual(res, refJoins[i]) {
					t.Errorf("%d servers: %s join %d diverges from the in-process reference:\n cluster %+v\n ref     %+v",
						servers, pass, i, res, refJoins[i])
				}
			}
		}

		for i, sp := range pipeSpecs {
			pres, err := csvc.RunPipeline(ctx, sp)
			if err != nil {
				t.Fatalf("%d servers: pipeline %d: %v", servers, i, err)
			}
			if !reflect.DeepEqual(pres, refPipes[i]) {
				t.Errorf("%d servers: pipeline %d diverges from the in-process reference:\n cluster %+v\n ref     %+v",
					servers, i, pres, refPipes[i])
			}
		}
	}
}

// TestClusterCountsAutoJoins: a cluster router's auto join counts in
// AutoPlanned like anywhere else, although no plan crosses the join
// transport: the counter counts completed auto queries, not plan reports.
func TestClusterCountsAutoJoins(t *testing.T) {
	csvc := clusterService(t, []string{startShardServer(t, 1).URL, startShardServer(t, 2).URL})
	registerTriple(t, csvc)
	q, err := csvc.SubmitSpec(context.Background(), service.JoinSpec{RName: "orders", SName: "lineitem", Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := csvc.Stats(); st.Completed != 1 || st.AutoPlanned != 1 {
		t.Errorf("completed %d, auto planned %d; want 1 and 1", st.Completed, st.AutoPlanned)
	}
}

// TestClusterHTTPInlineInvariance drives inline generation over HTTP: an
// inline join or pipeline POSTed to a cluster router reports the same
// matches, simulated total, phases and pipeline section as the identical
// request on a stand-alone server (every shard server generates the full
// relations from the generator spec the router sends, positional default
// seeds included).
func TestClusterHTTPInlineInvariance(t *testing.T) {
	single := startShardServer(t, 1)

	addrs := []string{startShardServer(t, 1).URL, startShardServer(t, 2).URL}
	csvc := clusterService(t, addrs)
	router := httptest.NewServer(httpapi.New(csvc, httpapi.Config{}))
	t.Cleanup(router.Close)

	post := func(url, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m struct{ Result map[string]any }
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST %s: non-JSON response: %v", url, err)
		}
		return resp.StatusCode, m.Result
	}
	same := func(what, body string) {
		t.Helper()
		st1, want := post(single.URL+what, body)
		st2, got := post(router.URL+what, body)
		if st1 != 200 || st2 != 200 || want["matches"] == nil {
			t.Fatalf("%s: single %d %v, router %d %v", what, st1, want, st2, got)
		}
		for _, k := range []string{"matches", "total_ms", "phases", "pipeline"} {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%s: router %s %v != single server %v", what, k, got[k], want[k])
			}
		}
		// The router must not leak its per-partition transport to clients.
		if _, ok := got["partitions"]; ok {
			t.Errorf("%s: router response leaks the per-partition transport: %v", what, got)
		}
	}

	same("/v1/join", `{"algo":"phj","scheme":"dd","delta":0.1,"r":20000,"s":20000,"sel":0.7,"skew":"low","wait":true}`)
	same("/v1/pipeline", `{"algo":"shj","scheme":"dd","delta":0.25,"sources":[{"n":4000,"key_range":4000,"seed":7},{"n":4000,"key_range":4000},{"n":5000,"key_range":4000}],"wait":true}`)
}

// TestClusterShardDownFailsFast: killing one shard server turns queries
// into prompt structured failures — cluster.ErrShardDown at the service
// layer, a 503 with code "shard_down" on the wire — never a hang and never
// a partial merge. A rejoin is not possible here (the server is gone), so
// recovery is covered by the pool's own health tests.
func TestClusterShardDownFailsFast(t *testing.T) {
	svc1 := service.New(service.Config{Workers: 2, MaxConcurrent: 2, Shards: 1})
	ts1 := httptest.NewServer(readerAccepts(t, httpapi.New(svc1, httpapi.Config{})))
	t.Cleanup(func() { ts1.Close(); _ = svc1.Close() })
	ts2 := startShardServer(t, 1)

	csvc := clusterService(t, []string{ts1.URL, ts2.URL})
	router := httptest.NewServer(httpapi.New(csvc, httpapi.Config{}))
	t.Cleanup(router.Close)
	registerTriple(t, csvc)

	ctx := context.Background()
	spec := service.JoinSpec{RName: "orders", SName: "lineitem", Opt: ddOptions(t, "phj")}
	if _, err := csvc.RunJoin(ctx, spec); err != nil {
		t.Fatalf("join with all shards up: %v", err)
	}

	ts1.Close()

	// Whether the health checker has marked the shard down yet or the
	// fan-out hits the refused connection itself, the failure is
	// ErrShardDown and arrives promptly.
	start := time.Now()
	_, err := csvc.RunJoin(ctx, spec)
	if !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("join with a downed shard: err %v, want cluster.ErrShardDown", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("shard-down failure took %v; the contract is fail-fast", d)
	}

	resp, err := http.Post(router.URL+"/v1/join", "application/json",
		bytes.NewReader([]byte(`{"algo":"phj","scheme":"dd","delta":0.1,"r_name":"orders","s_name":"lineitem","wait":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router status with a downed shard: %d, want 503", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "shard_down" || body.Error.Message == "" {
		t.Errorf("router error envelope: %+v, want code shard_down with a message", body.Error)
	}
}

// TestPipelineEmptySideEveryBackend: a pipeline whose first step matches
// nothing hands an empty intermediate to the next step. Every backend
// applies the one rule — an empty-side step is neither planned nor run and
// reports a zero result — so the pipeline succeeds, explicit and auto, on
// the unsharded service, the in-process shards and a cluster alike, with
// the same step count. (The unsharded auto run used to fail: the planner
// refuses an empty relation.) The rule covers a pairwise join the same way:
// an empty build or probe side yields the labelled zero Result — on the
// unsharded service too, which used to answer a planner error (auto) or the
// kernels' cost over the non-empty side (explicit).
func TestPipelineEmptySideEveryBackend(t *testing.T) {
	backends := map[string]*service.Service{
		"unsharded": service.New(service.Config{Workers: 2}),
		"shards=1":  service.New(service.Config{Workers: 2, Shards: 1}),
		"shards=4":  service.New(service.Config{Workers: 2, Shards: 4}),
		"cluster":   clusterService(t, []string{startShardServer(t, 1).URL, startShardServer(t, 2).URL}),
	}
	for name, svc := range backends {
		if name != "cluster" {
			t.Cleanup(func() { _ = svc.Close() })
		}
		if _, err := svc.RegisterGen("a", rel.Gen{N: 4096, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := svc.RegisterProbe("b", "a", rel.Gen{N: 4096, Seed: 2}, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := svc.RegisterProbe("c", "a", rel.Gen{N: 4096, Seed: 3}, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := svc.LoadRelation("none", rel.Relation{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, auto := range []bool{false, true} {
			for _, pair := range [][2]string{{"none", "c"}, {"a", "none"}} {
				opt := ddOptions(t, "phj")
				res, err := svc.RunJoin(context.Background(), service.JoinSpec{RName: pair[0], SName: pair[1], Opt: opt, Auto: auto})
				if err != nil {
					t.Errorf("%s auto=%v: %s ⋈ %s: %v", name, auto, pair[0], pair[1], err)
					continue
				}
				// (Auto names no algorithm on the cluster's wire, so only an
				// explicit join's label is the same everywhere.)
				if res.Matches != 0 || res.TotalNS != 0 || !auto && (res.Algo != opt.Algo || res.Scheme != opt.Scheme) {
					t.Errorf("%s auto=%v: %s ⋈ %s = %d matches, %v ns, %v-%v; want the zero result labelled %v-%v",
						name, auto, pair[0], pair[1], res.Matches, res.TotalNS, res.Algo, res.Scheme, opt.Algo, opt.Scheme)
				}
			}
			spec := service.PipelineSpec{
				Sources:       []service.PipelineSource{{Name: "a"}, {Name: "b"}, {Name: "c"}},
				Opt:           ddOptions(t, "shj"),
				Auto:          auto,
				DeclaredOrder: true,
			}
			pr, err := svc.RunPipeline(context.Background(), spec)
			if err != nil {
				t.Errorf("%s auto=%v: %v", name, auto, err)
				continue
			}
			if len(pr.Steps) != 2 || pr.Final.Matches != 0 || pr.IntermediateTuples != 0 {
				t.Errorf("%s auto=%v: %d steps, %d matches, %d intermediate tuples; want 2/0/0",
					name, auto, len(pr.Steps), pr.Final.Matches, pr.IntermediateTuples)
				continue
			}
			// The skipped step costs nothing and carries no plan, everywhere.
			if last := pr.Steps[1]; last.BuildTuples != 0 || last.Result.TotalNS != 0 || last.Plan != nil {
				t.Errorf("%s auto=%v: empty-side step = %d build tuples, %v ns, plan %+v",
					name, auto, last.BuildTuples, last.Result.TotalNS, last.Plan)
			}
		}
	}
}

// TestClusterRegisterLostReplyLeavesNoOrphan: a shard server that commits
// an upload and then loses the reply fails the registration — and must not
// keep the slice, or the retry would meet a 409. The rollback therefore
// deletes on the failing server too, and the name registers cleanly.
func TestClusterRegisterLostReplyLeavesNoOrphan(t *testing.T) {
	healthy := startShardServer(t, 1)

	svc := service.New(service.Config{Workers: 2, MaxConcurrent: 2, Shards: 1})
	inner := httpapi.New(svc, httpapi.Config{})
	var dropReply atomic.Bool
	lossy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/relations" && dropReply.CompareAndSwap(true, false) {
			// Commit, then lose the reply: the handler runs to completion
			// against a discarded response and the connection is cut.
			inner.ServeHTTP(httptest.NewRecorder(), r)
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				_ = conn.Close()
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		lossy.Close()
		_ = svc.Close()
	})

	// The lossy server is the LAST one uploaded to: the rollback has earlier
	// servers to undo as well as the failing one.
	csvc := clusterService(t, []string{healthy.URL, lossy.URL})
	dropReply.Store(true)
	if _, err := csvc.RegisterGen("orders", rel.Gen{N: 6000, Seed: 7}); err == nil {
		t.Fatal("registration succeeded although a shard's reply was lost")
	}
	if _, ok := svc.RelationInfo("orders"); ok {
		t.Error("the shard that lost its reply kept an orphaned slice")
	}
	if _, ok := csvc.RelationInfo("orders"); ok {
		t.Error("the router kept a record of the failed registration")
	}
	if _, err := csvc.RegisterGen("orders", rel.Gen{N: 6000, Seed: 7}); err != nil {
		t.Fatalf("re-register after the lost reply: %v", err)
	}
	if info, ok := svc.RelationInfo("orders"); !ok || info.Tuples == 0 {
		t.Errorf("retry did not place the slice: %+v ok=%v", info, ok)
	}
}

// TestClusterRouterCloseReclaimsGoroutines: a router that ran joins over
// two shard servers and is closed leaves no goroutine behind — not its
// health checker, not its workers, and not the reader and writer of a
// keep-alive connection of its pool's transport.
func TestClusterRouterCloseReclaimsGoroutines(t *testing.T) {
	addrs := []string{startShardServer(t, 1).URL, startShardServer(t, 2).URL}
	before := runtime.NumGoroutine()

	svc := service.New(service.Config{Workers: 2, MaxConcurrent: 2, Cluster: addrs})
	registerTriple(t, svc)
	for _, spec := range []service.JoinSpec{
		{RName: "orders", SName: "lineitem", Opt: ddOptions(t, "phj")},
		{RName: "orders", SName: "lineitem", Auto: true},
	} {
		if _, err := svc.RunJoin(context.Background(), spec); err != nil {
			t.Fatalf("auto=%v: %v", spec.Auto, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after the router closed: %d, want <= %d", g, before)
	}
}
