package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"apujoin/internal/core"
	"apujoin/internal/oracle"
	"apujoin/internal/rel"
)

// registerPipelineRels registers a 3-relation workload and returns the
// identically generated inline copies for oracle checks.
func registerPipelineRels(t testing.TB, svc *Service) []rel.Relation {
	t.Helper()
	rg := rel.Gen{N: 20000, Seed: 21}
	sg := rel.Gen{N: 26000, Dist: rel.LowSkew, Seed: 22}
	ug := rel.Gen{N: 12000, Seed: 23}
	if _, err := svc.RegisterGen("orders", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("lineitem", "orders", sg, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("returns", "orders", ug, 0.3); err != nil {
		t.Fatal(err)
	}
	r := rg.Build()
	return []rel.Relation{r, sg.Probe(r, 0.9), ug.Probe(r, 0.3)}
}

func pipelineSpec(auto bool) PipelineSpec {
	return PipelineSpec{
		Sources: []PipelineSource{{Name: "orders"}, {Name: "lineitem"}, {Name: "returns"}},
		Opt:     core.Options{Delta: 0.1, PilotItems: 1 << 10},
		Auto:    auto,
	}
}

// TestSubmitPipeline drives one pipeline query through the admission layer
// and checks the result surfaces: final matches against the oracle, the
// per-step snapshot with plan decisions, and the stats counters.
func TestSubmitPipeline(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 2})
	defer svc.Close()
	rels := registerPipelineRels(t, svc)

	q, err := svc.SubmitPipeline(context.Background(), pipelineSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.PipelineCount(rels); res.Matches != want {
		t.Errorf("matches %d, want oracle %d", res.Matches, want)
	}
	rep := q.Report()
	pr := rep.Pipeline
	if pr == nil || pr.Final != res || rep.Result != res || rep.State != Done {
		t.Fatalf("report after Wait = %+v, want done with the pipeline's final result", rep)
	}
	if !pr.Ordered || len(pr.Order) != 3 || len(pr.Steps) != 2 {
		t.Errorf("ordered=%v order=%v steps=%d, want a cost-ordered 2-step chain over 3 sources", pr.Ordered, pr.Order, len(pr.Steps))
	}
	var stepSum float64
	for i, st := range pr.Steps {
		if st.Plan == nil {
			t.Errorf("step %d: missing per-step PlanInfo on an auto pipeline", i)
		}
		stepSum += st.Result.TotalNS
	}
	if pr.TotalNS != stepSum {
		t.Errorf("TotalNS %.0f != step sum %.0f", pr.TotalNS, stepSum)
	}

	st := svc.Stats()
	if st.Pipelines != 1 || st.PipelineSteps != 2 {
		t.Errorf("stats pipelines=%d steps=%d, want 1/2", st.Pipelines, st.PipelineSteps)
	}
	if st.IntermediateTuples != pr.IntermediateTuples || st.IntermediateTuples <= 0 {
		t.Errorf("stats intermediate tuples %d, want %d > 0", st.IntermediateTuples, pr.IntermediateTuples)
	}
	if st.AutoPlanned != 1 {
		t.Errorf("stats auto planned %d, want 1", st.AutoPlanned)
	}
	if st.Matches != res.Matches {
		t.Errorf("stats matches %d, want %d", st.Matches, res.Matches)
	}
	if st.SimulatedNS != pr.TotalNS {
		t.Errorf("stats simulated %.0f, want %.0f", st.SimulatedNS, pr.TotalNS)
	}
	// The pipeline released its intermediates: residency is back to the
	// three registered relations.
	var relBytes int64
	for _, r := range rels {
		relBytes += r.Bytes()
	}
	if st.Catalog.Bytes != relBytes {
		t.Errorf("catalog bytes %d after pipeline, want %d", st.Catalog.Bytes, relBytes)
	}
	if st.Catalog.Relations != 3 {
		t.Errorf("catalog relations %d, want 3 (no intermediate lingers)", st.Catalog.Relations)
	}
}

// TestPipelineStats drives one pipeline through the admission layer and
// checks the footprint surfaces: the per-pipeline peak (exactly the largest
// single intermediate — at most one is ever resident), its stats mirror,
// the catalog's lifetime high-water mark, and that the residency budget is
// back at the registered relations afterwards.
func TestPipelineStats(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 1})
	defer svc.Close()
	rels := registerPipelineRels(t, svc)
	var relBytes int64
	for _, r := range rels {
		relBytes += r.Bytes()
	}

	q, err := svc.SubmitPipeline(context.Background(), pipelineSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	pr := q.Report().Pipeline
	if pr == nil {
		t.Fatal("no pipeline result")
	}
	var peak int64
	for _, st := range pr.Steps[:len(pr.Steps)-1] {
		if b := st.OutTuples * 8; b > peak {
			peak = b
		}
	}
	if pr.PeakIntermediateBytes != peak || peak <= 0 {
		t.Errorf("peak %d, want the largest single intermediate %d > 0", pr.PeakIntermediateBytes, peak)
	}

	st := svc.Stats()
	if st.Pipelines != 1 || st.PeakIntermediateBytesStreamed != peak {
		t.Errorf("stats pipelines=%d peak=%d, want 1/%d", st.Pipelines, st.PeakIntermediateBytesStreamed, peak)
	}
	// The pipeline drained its budget charges, and the catalog's lifetime
	// high-water mark recorded them: at least the relations plus the
	// reservation, and never more than capacity.
	if st.Catalog.Bytes != relBytes {
		t.Errorf("catalog bytes %d after the pipeline, want %d", st.Catalog.Bytes, relBytes)
	}
	if st.Catalog.PeakBytes < relBytes+peak || st.Catalog.PeakBytes > st.Catalog.Capacity {
		t.Errorf("catalog peak %d, want within [%d, %d]", st.Catalog.PeakBytes, relBytes+peak, st.Catalog.Capacity)
	}
}

// normalizeCacheHits returns a deep-enough copy of pr with every per-step
// CacheHit cleared: whether a step's plan came from the cache depends on
// what ran before, is allowed to vary, and changes nothing else — the
// remaining fields must be bit-identical.
func normalizeCacheHits(pr *PipelineResult) *PipelineResult {
	cp := *pr
	cp.Steps = append([]PipelineStep(nil), pr.Steps...)
	for i := range cp.Steps {
		if cp.Steps[i].Plan != nil {
			pl := *cp.Steps[i].Plan
			pl.CacheHit = false
			cp.Steps[i].Plan = &pl
		}
	}
	return &cp
}

// TestConcurrentPipelinesInvariance extends the service determinism
// contract to pipelines: a pipeline is bit-identical whether it runs alone
// synchronously, interleaved with other pipelines and plain queries, or
// serially afterwards. Under -race this also proves pipeline execution —
// including the transient reservations — is data-race free.
func TestConcurrentPipelinesInvariance(t *testing.T) {
	svc := New(Config{Workers: 4, MaxConcurrent: 4, MaxQueue: 16})
	defer svc.Close()
	registerPipelineRels(t, svc)

	// Reference: synchronous, outside the admission layer.
	refRun, err := svc.RunPipeline(context.Background(), pipelineSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	ref := normalizeCacheHits(refRun)

	const lanes = 4
	queries := make([]*Query, lanes)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := svc.SubmitPipeline(context.Background(), pipelineSpec(true))
			if err != nil {
				t.Errorf("lane %d: %v", i, err)
				return
			}
			queries[i] = q
		}(i)
	}
	// A plain query interleaves with the pipelines on the same pool.
	r := rel.Gen{N: 10000, Seed: 31}.Build()
	s := rel.Gen{N: 10000, Seed: 32}.Probe(r, 1.0)
	plain, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: core.Options{Delta: 0.1, PilotItems: 1 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, q := range queries {
		if q == nil {
			t.Fatal("lane lost its query")
		}
		if _, err := q.Wait(context.Background()); err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		pr := q.Report().Pipeline
		if pr == nil {
			t.Fatalf("lane %d: no pipeline result", i)
		}
		if !reflect.DeepEqual(ref, normalizeCacheHits(pr)) {
			t.Errorf("lane %d: interleaved PipelineResult differs from the synchronous reference", i)
		}
	}
	if res, err := plain.Wait(context.Background()); err != nil || res.Matches != rel.NaiveJoinCount(r, s) {
		t.Errorf("interleaved plain query: res %v err %v", res, err)
	}

	// Serial afterwards, same (now warm) service.
	q, err := svc.SubmitPipeline(context.Background(), pipelineSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pr := q.Report().Pipeline; !reflect.DeepEqual(ref, normalizeCacheHits(pr)) {
		t.Error("serial-after PipelineResult differs from the synchronous reference")
	}
}

// TestPipelineAdmission: pipeline submissions respect the bounded queue
// all-or-nothing — a rejected pipeline releases every source pin — and a
// queued pipeline can be cancelled before it runs, releasing its pins too.
func TestPipelineAdmission(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 1, MaxQueue: 2})
	defer svc.Close()
	registerPipelineRels(t, svc)

	// holder is big enough to still be running while the rest submit.
	r1 := rel.Gen{N: 1 << 17, Seed: 41}.Build()
	s1 := rel.Gen{N: 1 << 17, Seed: 42}.Probe(r1, 1.0)
	holder, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r1, S: s1,
		Opt: core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for holder.Report().State == Queued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Two queued pipelines fill the queue; a third is rejected whole.
	queued1, err := svc.SubmitPipeline(context.Background(), pipelineSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	queued2, err := svc.SubmitPipeline(context.Background(), pipelineSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitPipeline(context.Background(), pipelineSpec(false)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow pipeline: err %v, want ErrQueueFull", err)
	}
	if got := svc.Stats().Rejected; got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}

	// Cancel one pipeline while it waits for admission.
	queued2.Cancel()
	if _, err := queued2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled queued pipeline: err %v, want context.Canceled", err)
	}
	if queued2.Report().Pipeline != nil {
		t.Error("cancelled pipeline reports a pipeline result")
	}

	if _, err := holder.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := queued1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Rejection, cancellation and completion all released their pins.
	waitForZeroPins(t, svc)
}

// waitForZeroPins waits for every catalog entry's pin count to drain.
func waitForZeroPins(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		pins := 0
		for _, info := range svc.Relations() {
			pins += info.Pins
		}
		if pins == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Error("catalog pins did not drain")
}

// TestPipelineCloseNoGoroutineLeaks mirrors TestServiceCloseNoGoroutineLeaks
// with pipelines in flight through the admission layer.
func TestPipelineCloseNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{Workers: 4, MaxConcurrent: 2, MaxQueue: 8})
	registerPipelineRels(t, svc)
	for i := 0; i < 4; i++ {
		if _, err := svc.SubmitPipeline(context.Background(), pipelineSpec(i%2 == 0)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after Close: %d, want <= %d", g, before)
	}
	if _, err := svc.SubmitPipeline(context.Background(), pipelineSpec(false)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err %v, want ErrClosed", err)
	}
}
