package service

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/service/api"
	"apujoin/internal/shard"
)

// fakeBackend is a backend that holds nothing: it records placements,
// fails or blocks them on demand, and answers jobs with canned
// per-partition vectors — the router's logic under test, alone.
type fakeBackend struct {
	placed   map[string]bool
	placeErr error
	// entered and release, when set, make place announce itself and block.
	entered, release chan struct{}

	joinParts []*core.Result
	joinPlans []*PlanInfo
	pipeParts *PipelinePartitions
}

func (f *fakeBackend) place(sr *shardedRel, _ []rel.Relation) error {
	if f.entered != nil {
		f.entered <- struct{}{}
		<-f.release
	}
	if f.placeErr != nil {
		return f.placeErr
	}
	f.placed[sr.name] = true
	return nil
}
func (f *fakeBackend) remove(sr *shardedRel)                     { delete(f.placed, sr.name) }
func (f *fakeBackend) bindJoin(*joinJob, JoinSpec) error         { return nil }
func (f *fakeBackend) bindPipeline(*pipeJob, PipelineSpec) error { return nil }
func (f *fakeBackend) runJoin(context.Context, *joinJob) ([]*core.Result, []*PlanInfo, error) {
	// Produced highest partition first: the merge must not care.
	out := make([]*core.Result, len(f.joinParts))
	for p := len(out) - 1; p >= 0; p-- {
		out[p] = f.joinParts[p]
	}
	return out, f.joinPlans, nil
}
func (f *fakeBackend) runPipeline(context.Context, *pipeJob) (*PipelinePartitions, error) {
	return f.pipeParts, nil
}
func (f *fakeBackend) planWhole(context.Context, rel.Relation, rel.Relation, core.Options, *plan.Workload) (*core.Plan, bool, error) {
	return nil, false, errors.New("fake: no planner")
}
func (f *fakeBackend) stats(*Stats) {}
func (f *fakeBackend) close()       {}

func newFakeRouter() (*router, *fakeBackend) {
	f := &fakeBackend{placed: make(map[string]bool)}
	return newRouter(f, shard.Partitions), f
}

// TestRouterFailedPlacementLeavesNothing: whichever registration form the
// backend's placement fails under, the router keeps no record and no
// pending mark, counts nothing, and the name registers cleanly once the
// backend recovers.
func TestRouterFailedPlacementLeavesNothing(t *testing.T) {
	rt, f := newFakeRouter()
	if _, err := rt.RegisterGen("base", rel.Gen{N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	forms := map[string]func() (catalog.Info, error){
		"gen":   func() (catalog.Info, error) { return rt.RegisterGen("x", rel.Gen{N: 64, Seed: 2}) },
		"probe": func() (catalog.Info, error) { return rt.RegisterProbe("x", "base", rel.Gen{N: 64, Seed: 3}, 0.5) },
		"load":  func() (catalog.Info, error) { return rt.Load("x", rel.Gen{N: 64, Seed: 4}.Build()) },
	}
	boom := errors.New("boom")
	for name, register := range forms {
		f.placeErr = boom
		before := rt.registered
		if _, err := register(); !errors.Is(err, boom) {
			t.Fatalf("%s: err %v, want the placement failure", name, err)
		}
		if _, ok := rt.Get("x"); ok || len(rt.pending) != 0 || len(rt.rels) != 1 || rt.registered != before {
			t.Errorf("%s: failed placement left state behind: bound=%v pending=%v rels=%d registered=%d (was %d)",
				name, ok, rt.pending, len(rt.rels), rt.registered, before)
		}
		f.placeErr = nil
		if _, err := register(); err != nil {
			t.Errorf("%s: re-register after the failure: %v", name, err)
		}
		if _, err := rt.Drop("x"); err != nil || f.placed["x"] || len(rt.pending) != 0 {
			t.Errorf("%s: drop: err %v, still placed %v, pending %v", name, err, f.placed["x"], rt.pending)
		}
	}
}

// TestRouterConcurrentRegistrationOneWinner: while one registration of a
// name is in flight (blocked in the backend), a second one fails with
// ErrExists at once — before generating anything — and the first completes.
func TestRouterConcurrentRegistrationOneWinner(t *testing.T) {
	rt, f := newFakeRouter()
	f.entered, f.release = make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := rt.RegisterGen("x", rel.Gen{N: 64, Seed: 1})
		first <- err
	}()
	<-f.entered
	// Were this to get as far as generation, the size alone would show.
	if _, err := rt.RegisterGen("x", rel.Gen{N: 1 << 22, Seed: 2}); !errors.Is(err, catalog.ErrExists) {
		t.Errorf("concurrent duplicate: err %v, want catalog.ErrExists", err)
	}
	if _, err := rt.Load("x", rel.Relation{}); !errors.Is(err, catalog.ErrExists) {
		t.Errorf("concurrent duplicate load: err %v, want catalog.ErrExists", err)
	}
	close(f.release)
	if err := <-first; err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if info, ok := rt.Get("x"); !ok || info.Tuples != 64 || rt.registered != 1 {
		t.Errorf("winner: info %+v ok=%v registered=%d, want the 64-tuple relation once", info, ok, rt.registered)
	}
}

// cannedResult is a partition result whose floats make summation order
// visible: merged in any order but the fixed one, the totals differ.
func cannedResult(p, t int) *core.Result {
	r := &core.Result{Matches: int64(p + 1), TotalNS: 1e15/float64(p+1) + 0.1*float64(t+p)}
	r.BuildNS = r.TotalNS / 3
	return r
}

// TestRouterMergesInFixedOrder: whatever order the backend computed the
// partitions in, a join merges to shard.MergeResults over partition order,
// and a pipeline's steps, plan aggregates and gauges reassemble from the
// per-partition transport the same way — while its tuple counts derive from
// the merged matches and the sources' whole-relation sizes in the executed
// order.
func TestRouterMergesInFixedOrder(t *testing.T) {
	rt, f := newFakeRouter()
	f.joinParts = make([]*core.Result, shard.Partitions)
	for p := range f.joinParts {
		f.joinParts[p] = cannedResult(p, 0)
	}
	merged, parts, _, err := rt.execJoin(context.Background(), &joinJob{keep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, shard.MergeResults(f.joinParts)) || !reflect.DeepEqual(parts, f.joinParts) {
		t.Error("join: merged result or kept vector differs from the fixed-order merge")
	}
	if _, parts, _, _ = rt.execJoin(context.Background(), &joinJob{}); parts != nil {
		t.Error("join: per-partition vector kept without being asked for")
	}

	const nSteps = 3
	pp := newPipelinePartitions(nSteps, shard.Partitions)
	var wantPeak int64
	for p := 0; p < shard.Partitions; p++ {
		for s := 0; s < nSteps; s++ {
			// Partition p of step s matches (s+1)(p+1) tuples: the steps
			// merge to 36, 72 and 108 matches.
			pp.Steps[s][p] = cannedResult(p, s)
			pp.Steps[s][p].Matches = int64((s + 1) * (p + 1))
		}
		// Step 0 is planned on the odd partitions only; one of them missed.
		if p%2 == 1 {
			pp.Plans[0][p] = &PlanInfo{Algo: "PHJ", Scheme: "PL", CacheHit: p != 3, PredictedNS: float64(p)}
		}
		pp.Peak[p] = int64(100 * p)
		wantPeak += int64(100 * p)
	}
	pp.SpillDepth[5] = 2
	f.pipeParts = pp
	pj := &pipeJob{
		sources: []source{{name: "a", tuples: 1000}, {name: "b", tuples: 2000}, {name: "c", tuples: 3000}, {name: "d", tuples: 4000}},
		order:   &pipeOrder{order: []int{2, 0, 3, 1}, ordered: true},
	}
	pr, err := rt.execPipeline(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nSteps; s++ {
		if !reflect.DeepEqual(pr.Steps[s].Result, shard.MergeResults(pp.Steps[s])) {
			t.Errorf("pipeline step %d: merged result differs from the fixed-order merge", s)
		}
	}
	want := []struct {
		build, probe   string
		buildT, probeT int
	}{{"c", "a", 3000, 1000}, {"step1", "d", 36, 4000}, {"step2", "b", 72, 2000}}
	for s, w := range want {
		st := pr.Steps[s]
		if st.Build != w.build || st.Probe != w.probe || st.BuildTuples != w.buildT || st.ProbeTuples != w.probeT || st.OutTuples != int64(36*(s+1)) {
			t.Errorf("step %d: %q (%d) ⋈ %q (%d) = %d, want %q (%d) ⋈ %q (%d) = %d",
				s, st.Build, st.BuildTuples, st.Probe, st.ProbeTuples, st.OutTuples, w.build, w.buildT, w.probe, w.probeT, 36*(s+1))
		}
	}
	if pl := pr.Steps[0].Plan; pl == nil || pl.Algo != "PHJ" || pl.CacheHit || pl.PredictedNS != 1+3+5+7 {
		t.Errorf("step 0 plan aggregate = %+v, want PHJ, a miss, 16 ns predicted", pl)
	}
	if pr.Steps[1].Plan != nil || pr.Steps[2].Plan != nil {
		t.Errorf("steps 1 and 2 report plans no partition made: %+v, %+v", pr.Steps[1].Plan, pr.Steps[2].Plan)
	}
	if pr.Final != pr.Steps[2].Result || pr.TotalNS != pr.Steps[0].Result.TotalNS+pr.Steps[1].Result.TotalNS+pr.Steps[2].Result.TotalNS {
		t.Error("pipeline Final or TotalNS is not the steps' serial fold")
	}
	// The intermediates are the non-final steps' matches: 36 + 72.
	if pr.PeakIntermediateBytes != wantPeak || pr.IntermediateTuples != 108 || pr.IntermediateBytes != 864 || pr.SpillDepth != 2 || pr.Partitions != nil {
		t.Errorf("gauges: peak %d tuples %d bytes %d depth %d partitions %v, want %d/108/864/2/nil",
			pr.PeakIntermediateBytes, pr.IntermediateTuples, pr.IntermediateBytes, pr.SpillDepth, pr.Partitions, wantPeak)
	}
}

// TestRouterGridOfOneIsIdentity: over a one-partition backend the router's
// merge is the identity. A join's result is the backend's own *core.Result
// — the pointer, so ratio vectors, step timings and pilot profiles survive,
// where the fixed-order merge of a larger grid leaves them zero — and a
// join's or a pipeline step's PlanInfo equals the partition's.
func TestRouterGridOfOneIsIdentity(t *testing.T) {
	f := &fakeBackend{placed: make(map[string]bool)}
	rt := newRouter(f, shard.One)
	own := cannedResult(0, 0)
	own.Ratios.Build = []float64{0.25, 0.5}
	plan0 := &PlanInfo{Algo: "PHJ", Scheme: "PL", CacheHit: true, PredictedNS: 1234.5}
	f.joinParts, f.joinPlans = []*core.Result{own}, []*PlanInfo{plan0}
	merged, _, pl, err := rt.execJoin(context.Background(), &joinJob{auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if merged != own {
		t.Errorf("join: merged result %p is not the partition's own %p", merged, own)
	}
	if pl == nil || *pl != *plan0 {
		t.Errorf("join: plan %+v, want the partition's %+v", pl, plan0)
	}

	pp := newPipelinePartitions(2, 1)
	for s := range pp.Steps {
		pp.Steps[s][0] = cannedResult(0, s)
	}
	pp.Plans[0][0] = &PlanInfo{Algo: "SHJ", Scheme: "DD", PredictedNS: 77}
	pp.Peak[0], pp.SpillDepth[0] = 4096, 1
	f.pipeParts = pp
	pj := &pipeJob{
		sources: []source{{name: "a"}, {name: "b"}, {name: "c"}},
		order:   &pipeOrder{order: []int{0, 1, 2}, ordered: true, replans: 1},
	}
	pr, err := rt.execPipeline(context.Background(), pj)
	if err != nil {
		t.Fatal(err)
	}
	for s := range pp.Steps {
		if pr.Steps[s].Result != pp.Steps[s][0] {
			t.Errorf("pipeline step %d: result is not the partition's own", s)
		}
	}
	if got := pr.Steps[0].Plan; got == nil || *got != *pp.Plans[0][0] || pr.Steps[1].Plan != nil {
		t.Errorf("step plans %+v / %+v, want the partition's and none", got, pr.Steps[1].Plan)
	}
	if pr.PeakIntermediateBytes != 4096 || pr.SpillDepth != 1 || pr.Replans != 1 {
		t.Errorf("gauges: peak %d depth %d replans %d, want 4096/1/1", pr.PeakIntermediateBytes, pr.SpillDepth, pr.Replans)
	}
}

// TestRouterDropInvalidatesWorkloadMemo: the pair workload is computed once
// per pair and reused, dropping either side forgets it, and a relation
// re-registered under the name gets a fresh one.
func TestRouterDropInvalidatesWorkloadMemo(t *testing.T) {
	rt, _ := newFakeRouter()
	register := func(sel float64) [2]*shardedRel {
		t.Helper()
		if _, err := rt.RegisterProbe("s", "r", rel.Gen{N: 4000, Seed: 2}, sel); err != nil {
			t.Fatal(err)
		}
		return [2]*shardedRel{rt.rels["r"], rt.rels["s"]}
	}
	if _, err := rt.RegisterGen("r", rel.Gen{N: 4000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	recs := register(1.0)
	full := rt.workload(recs[0], recs[1])
	if again := rt.workload(recs[0], recs[1]); again != full || rt.reuses != 1 || len(rt.workloads) != 1 {
		t.Errorf("second lookup: %+v (first %+v), reuses %d, memo %d", again, full, rt.reuses, len(rt.workloads))
	}
	if _, err := rt.Drop("s"); err != nil {
		t.Fatal(err)
	}
	if len(rt.workloads) != 0 {
		t.Errorf("memo survived the drop: %v", rt.workloads)
	}
	// A lookup racing the drop must not resurrect the stale pair either.
	if rt.workload(recs[0], recs[1]); len(rt.workloads) != 0 {
		t.Errorf("stale records re-memoized: %v", rt.workloads)
	}
	recs = register(0.0)
	if none := rt.workload(recs[0], recs[1]); none == full || rt.reuses != 1 {
		t.Errorf("re-registered pair: workload %+v (old %+v), reuses %d — served from the stale memo", none, full, rt.reuses)
	}
}

// TestValidateShardPipeline: a shard's pipeline reply is accepted only with
// every per-partition vector complete — one row per step, one slot per grid
// partition in each row and in each chain gauge.
func TestValidateShardPipeline(t *testing.T) {
	reply := func(edit func(*api.PipelineParts)) *api.JoinResponse {
		pp := &api.PipelineParts{
			Steps:                 [][]api.PartitionStep{make([]api.PartitionStep, shard.Partitions), make([]api.PartitionStep, shard.Partitions)},
			PeakIntermediateBytes: make([]int64, shard.Partitions),
			SpillDepth:            make([]int, shard.Partitions),
		}
		if edit != nil {
			edit(pp)
		}
		return &api.JoinResponse{State: "done", Pipeline: &api.PipelineReport{Partitions: pp}}
	}
	if err := validateShardPipeline(reply(nil), 2); err != nil {
		t.Fatalf("complete reply rejected: %v", err)
	}
	bad := map[string]*api.JoinResponse{
		"no transport":          {State: "done", Pipeline: &api.PipelineReport{}},
		"missing step":          reply(func(pp *api.PipelineParts) { pp.Steps = pp.Steps[:1] }),
		"short step row":        reply(func(pp *api.PipelineParts) { pp.Steps[1] = pp.Steps[1][:shard.Partitions-1] }),
		"short peak vector":     reply(func(pp *api.PipelineParts) { pp.PeakIntermediateBytes = pp.PeakIntermediateBytes[:shard.Partitions-1] }),
		"no spill-depth":        reply(func(pp *api.PipelineParts) { pp.SpillDepth = nil }),
		"truncated spill-depth": reply(func(pp *api.PipelineParts) { pp.SpillDepth = pp.SpillDepth[:3] }),
	}
	for name, resp := range bad {
		if err := validateShardPipeline(resp, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
