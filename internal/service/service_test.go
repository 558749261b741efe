package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// invarianceCase is one query of the concurrency contract: its own dataset
// and configuration, so interleaved queries are heterogeneous.
type invarianceCase struct {
	name string
	opt  core.Options
	dist rel.Distribution
	seed int64
	nr   int
	ns   int
	sel  float64
}

func invarianceCases() []invarianceCase {
	return []invarianceCase{
		{"SHJ/PL/uniform", core.Options{Algo: core.SHJ, Scheme: core.PL}, rel.Uniform, 101, 25000, 35000, 1.0},
		{"PHJ/PL/uniform", core.Options{Algo: core.PHJ, Scheme: core.PL}, rel.Uniform, 202, 30000, 30000, 0.8},
		{"PHJ/DD/highskew", core.Options{Algo: core.PHJ, Scheme: core.DD}, rel.HighSkew, 303, 20000, 40000, 0.9},
		{"SHJ/OL/lowskew", core.Options{Algo: core.SHJ, Scheme: core.OL}, rel.LowSkew, 404, 25000, 25000, 0.5},
		{"SHJ/DD/separate", core.Options{Algo: core.SHJ, Scheme: core.DD, SeparateTables: true}, rel.Uniform, 505, 20000, 20000, 1.0},
		{"PHJ/PL'/uniform", core.Options{Algo: core.PHJ, Scheme: core.CoarsePL}, rel.Uniform, 606, 25000, 25000, 0.7},
	}
}

func (c invarianceCase) data() (rel.Relation, rel.Relation) {
	r := rel.Gen{N: c.nr, Dist: c.dist, Seed: c.seed}.Build()
	s := rel.Gen{N: c.ns, Dist: c.dist, Seed: c.seed + 1}.Probe(r, c.sel)
	return r, s
}

func (c invarianceCase) options() core.Options {
	opt := c.opt
	opt.Delta = 0.1
	opt.PilotItems = 4096
	return opt
}

// compareResults demands bit-identical simulation output between two runs
// of the same query.
func compareResults(t *testing.T, name, mode string, ref, got *core.Result) {
	t.Helper()
	if got.Matches != ref.Matches {
		t.Errorf("%s %s: matches %d, want %d", name, mode, got.Matches, ref.Matches)
	}
	if got.TotalNS != ref.TotalNS {
		t.Errorf("%s %s: TotalNS %.3f, want %.3f", name, mode, got.TotalNS, ref.TotalNS)
	}
	if got.Breakdown != ref.Breakdown {
		t.Errorf("%s %s: breakdown differs:\n got %+v\nwant %+v", name, mode, got.Breakdown, ref.Breakdown)
	}
	if got.AllocStats != ref.AllocStats {
		t.Errorf("%s %s: alloc stats differ:\n got %+v\nwant %+v", name, mode, got.AllocStats, ref.AllocStats)
	}
	if got.Cache != ref.Cache {
		t.Errorf("%s %s: cache stats differ:\n got %+v\nwant %+v", name, mode, got.Cache, ref.Cache)
	}
	if !reflect.DeepEqual(got.Ratios, ref.Ratios) {
		t.Errorf("%s %s: ratios differ:\n got %+v\nwant %+v", name, mode, got.Ratios, ref.Ratios)
	}
	if len(got.Steps) != len(ref.Steps) {
		t.Fatalf("%s %s: step counts differ: %d vs %d", name, mode, len(got.Steps), len(ref.Steps))
	}
	for i := range ref.Steps {
		if got.Steps[i] != ref.Steps[i] {
			t.Errorf("%s %s: step %d differs:\n got %+v\nwant %+v", name, mode, i, got.Steps[i], ref.Steps[i])
		}
	}
}

// TestConcurrentQueriesInvariance is the service layer's contract: every
// query's match count and simulated times are bit-identical whether it runs
// alone (plain core.Run, one worker), interleaved with the other queries on
// a shared service, or serially through the same service afterwards. Run
// under -race this also proves the interleaving is data-race free.
func TestConcurrentQueriesInvariance(t *testing.T) {
	cases := invarianceCases()

	// Reference: each query alone, single worker, transient pool.
	refs := make([]*core.Result, len(cases))
	for i, c := range cases {
		r, s := c.data()
		opt := c.options()
		opt.Workers = 1
		res, err := core.Run(r, s, opt)
		if err != nil {
			t.Fatalf("%s: reference run: %v", c.name, err)
		}
		want := rel.NaiveJoinCount(r, s)
		if res.Matches != want {
			t.Fatalf("%s: reference matches %d, want %d", c.name, res.Matches, want)
		}
		refs[i] = res
	}

	svc := New(Config{Workers: 8, MaxConcurrent: len(cases), MaxQueue: len(cases)})
	defer svc.Close()

	// Interleaved: all queries in flight at once on the shared pool.
	queries := make([]*Query, len(cases))
	for i, c := range cases {
		r, s := c.data()
		q, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: c.options()})
		if err != nil {
			t.Fatalf("%s: submit: %v", c.name, err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: interleaved: %v", cases[i].name, err)
		}
		compareResults(t, cases[i].name, "interleaved", refs[i], res)
	}

	// Serial through the same (now warm) service: one at a time.
	for i, c := range cases {
		r, s := c.data()
		q, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: c.options()})
		if err != nil {
			t.Fatalf("%s: serial submit: %v", c.name, err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: serial: %v", c.name, err)
		}
		compareResults(t, c.name, "serial-after", refs[i], res)
	}

	st := svc.Stats()
	if st.Completed != int64(2*len(cases)) {
		t.Errorf("stats completed %d, want %d", st.Completed, 2*len(cases))
	}
	if st.Queued != 0 || st.Active != 0 {
		t.Errorf("gauges not drained: queued %d active %d", st.Queued, st.Active)
	}
	var wantMatches int64
	for _, ref := range refs {
		wantMatches += 2 * ref.Matches
	}
	if st.Matches != wantMatches {
		t.Errorf("stats matches %d, want %d", st.Matches, wantMatches)
	}
}

// TestServiceCloseNoGoroutineLeaks proves Close reclaims every goroutine
// the service started: resident pool workers and per-query runners.
func TestServiceCloseNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{Workers: 8, MaxConcurrent: 3})
	r := rel.Gen{N: 20000, Seed: 1}.Build()
	s := rel.Gen{N: 20000, Seed: 2}.Probe(r, 1.0)
	for i := 0; i < 5; i++ {
		opt := core.Options{Algo: core.PHJ, Scheme: core.DD, Delta: 0.1, PilotItems: 2048}
		if _, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: opt}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
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
		t.Errorf("goroutines after Close: %d, want <= %d", g, before)
	}

	if _, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: core.Options{}}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err %v, want ErrClosed", err)
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
}

// TestAdmissionQueueAndCancel exercises the admission layer: a running
// query holds the only slot, waiting queries fill the bounded queue,
// overflow is rejected fast, and a queued query can be cancelled without
// ever running.
func TestAdmissionQueueAndCancel(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 1, MaxQueue: 3})
	defer svc.Close()

	// q1 is big enough to still be running while the rest are submitted.
	r1 := rel.Gen{N: 1 << 17, Seed: 1}.Build()
	s1 := rel.Gen{N: 1 << 17, Seed: 2}.Probe(r1, 1.0)
	q1, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r1, S: s1, Opt: core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 4096}})
	if err != nil {
		t.Fatalf("q1 submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for q1.Snapshot().State == Queued.String() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := q1.Snapshot().State; st != Running.String() && st != Done.String() {
		t.Fatalf("q1 state %v, want running", st)
	}

	r := rel.Gen{N: 4000, Seed: 3}.Build()
	s := rel.Gen{N: 4000, Seed: 4}.Probe(r, 1.0)
	small := core.Options{Algo: core.SHJ, Scheme: core.DD, Delta: 0.25, PilotItems: 1024}

	q2, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: small})
	if err != nil {
		t.Fatalf("q2 submit: %v", err)
	}
	q3, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: small})
	if err != nil {
		t.Fatalf("q3 submit: %v", err)
	}
	q4, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: small})
	if err != nil {
		t.Fatalf("q4 submit: %v", err)
	}
	if _, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: small}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit: err %v, want ErrQueueFull", err)
	}
	if got := svc.Stats().Rejected; got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}

	// Cancel q4 while it waits for admission (q1 still holds the slot).
	q4.Cancel()
	if _, err := q4.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled queued query: err %v, want context.Canceled", err)
	}
	if st := q4.Snapshot().State; st != Canceled.String() {
		t.Errorf("q4 state %v, want canceled", st)
	}

	for _, q := range []*Query{q1, q2, q3} {
		if _, err := q.Wait(context.Background()); err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
	}

	st := svc.Stats()
	if st.Completed != 3 || st.Canceled != 1 {
		t.Errorf("stats completed %d canceled %d, want 3 and 1", st.Completed, st.Canceled)
	}
}

// TestResultRetention checks eviction keeps the newest finished queries
// pollable and never drops unfinished ones.
func TestResultRetention(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 2, MaxQueue: 16, KeepResults: 3})
	defer svc.Close()

	r := rel.Gen{N: 3000, Seed: 7}.Build()
	s := rel.Gen{N: 3000, Seed: 8}.Probe(r, 1.0)
	opt := core.Options{Algo: core.SHJ, Scheme: core.DD, Delta: 0.25, PilotItems: 1024}

	var last *Query
	for i := 0; i < 6; i++ {
		q, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: opt})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := q.Wait(context.Background()); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		last = q
	}
	if got := len(svc.Queries()); got > 3 {
		t.Errorf("retained %d queries, want <= 3", got)
	}
	if _, ok := svc.Query(last.ID); !ok {
		t.Errorf("newest query %d evicted", last.ID)
	}
	if _, ok := svc.Query(1); ok {
		t.Errorf("oldest query still retained beyond cap")
	}
}

// TestSubmitAutoBitIdentical: queries submitted with Auto set — planner
// decides, plan cache mediates — produce results bit-identical to a plain
// core.Run with the same plan injected explicitly, whether the plan came
// from a cache miss or a hit; and the stats surface reports the cache and
// predicted-vs-simulated accounting.
func TestSubmitAutoBitIdentical(t *testing.T) {
	opt := core.Options{Delta: 0.1, PilotItems: 1 << 11}
	r := rel.Gen{N: 30000, Dist: rel.LowSkew, Seed: 11}.Build()
	s := rel.Gen{N: 30000, Dist: rel.LowSkew, Seed: 12}.Probe(r, 0.8)

	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()

	const queries = 4
	qs := make([]*Query, queries)
	for i := range qs {
		q, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: opt, Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	results := make([]*core.Result, queries)
	for i, q := range qs {
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}

	// Explicitly planned reference, run alone outside the service.
	pl, err := core.BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	refOpt := opt
	refOpt.Plan = pl
	refOpt.Workers = 1
	ref, err := core.Run(r, s, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		compareResults(t, "auto", fmt.Sprintf("query %d vs explicit plan", i), ref, res)
	}

	// Every query's snapshot reports the planner's decision; exactly one
	// paid the plan build.
	hits := 0
	for _, q := range qs {
		info := q.Snapshot()
		if info.Plan == nil {
			t.Fatalf("query %d snapshot has no plan report", q.ID)
		}
		if info.Plan.Algo != pl.Algo.String() || info.Plan.Scheme != pl.Scheme.String() {
			t.Errorf("query %d planned %s-%s, want %s-%s",
				q.ID, info.Plan.Algo, info.Plan.Scheme, pl.Algo, pl.Scheme)
		}
		if info.Plan.CacheHit {
			hits++
		}
	}
	if hits != queries-1 {
		t.Errorf("%d cache hits across %d identical queries, want %d", hits, queries, queries-1)
	}

	st := svc.Stats()
	if st.AutoPlanned != queries {
		t.Errorf("AutoPlanned %d, want %d", st.AutoPlanned, queries)
	}
	if st.PlanMisses != 1 || st.PlanHits != queries-1 {
		t.Errorf("plan cache hits/misses %d/%d, want %d/1", st.PlanHits, st.PlanMisses, queries-1)
	}
	if st.PlanEntries != 1 {
		t.Errorf("PlanEntries %d, want 1", st.PlanEntries)
	}
	if st.PlanSimulatedNS != float64(queries)*ref.TotalNS {
		t.Errorf("PlanSimulatedNS %.0f, want %.0f", st.PlanSimulatedNS, float64(queries)*ref.TotalNS)
	}
	if st.PlanPredictedNS != float64(queries)*pl.PredictedNS {
		t.Errorf("PlanPredictedNS %.0f, want %.0f", st.PlanPredictedNS, float64(queries)*pl.PredictedNS)
	}
	if err := st.PlanAbsErrNS / st.PlanSimulatedNS; err < 0 || err > 1 {
		t.Errorf("mean relative plan error %.3f out of [0,1]", err)
	}
}

// TestSubmitAutoDistinctShapes: different workload shapes occupy distinct
// cache entries and each picks its own plan.
func TestSubmitAutoDistinctShapes(t *testing.T) {
	opt := core.Options{Delta: 0.1, PilotItems: 1 << 11}
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()

	shapes := []struct {
		dist rel.Distribution
		sel  float64
	}{{rel.Uniform, 1.0}, {rel.HighSkew, 0.5}}
	for i, sh := range shapes {
		r := rel.Gen{N: 20000, Dist: sh.dist, Seed: int64(100 * (i + 1))}.Build()
		s := rel.Gen{N: 20000, Dist: sh.dist, Seed: int64(100*(i+1) + 1)}.Probe(r, sh.sel)
		q, err := svc.SubmitSpec(context.Background(), JoinSpec{R: r, S: s, Opt: opt, Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := rel.NaiveJoinCount(r, s); res.Matches != want {
			t.Fatalf("shape %d: %d matches, want %d", i, res.Matches, want)
		}
	}
	st := svc.Stats()
	if st.PlanMisses != int64(len(shapes)) || st.PlanEntries != len(shapes) {
		t.Errorf("misses %d entries %d, want %d each", st.PlanMisses, st.PlanEntries, len(shapes))
	}
}
