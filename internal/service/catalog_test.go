package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// TestSubmitNamedBitIdentical is the catalog determinism contract at the
// service layer: a join referencing registered relations returns results
// bit-identical to the same join submitted with inline relations — for
// both explicit and auto-planned queries — and the auto paths share one
// plan-cache entry because the catalog's ingest-time buckets equal the
// inline measurement.
func TestSubmitNamedBitIdentical(t *testing.T) {
	opt := core.Options{Algo: core.PHJ, Scheme: core.DD, Delta: 0.1, PilotItems: 1 << 11}
	rg := rel.Gen{N: 30000, Seed: 21}
	sg := rel.Gen{N: 40000, Dist: rel.LowSkew, Seed: 22}
	const sel = 0.7

	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	if _, err := svc.RegisterGen("orders", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("lineitem", "orders", sg, sel); err != nil {
		t.Fatal(err)
	}

	r := rg.Build()
	s := sg.Probe(r, sel)

	wait := func(spec JoinSpec) *core.Result {
		t.Helper()
		q, err := svc.SubmitSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	inline := wait(JoinSpec{R: r, S: s, Opt: opt})
	named := wait(JoinSpec{RName: "orders", SName: "lineitem", Opt: opt})
	compareResults(t, "catalog", "named vs inline", inline, named)

	inlineAuto := wait(JoinSpec{R: r, S: s, Opt: core.Options{Delta: 0.1, PilotItems: 1 << 11}, Auto: true})
	namedAuto := wait(JoinSpec{RName: "orders", SName: "lineitem", Opt: core.Options{Delta: 0.1, PilotItems: 1 << 11}, Auto: true})
	compareResults(t, "catalog", "named auto vs inline auto", inlineAuto, namedAuto)

	// Same fingerprint, one plan build: the catalog path measured nothing
	// yet landed in the inline query's cache slot.
	st := svc.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 1 {
		t.Errorf("plan cache hits/misses %d/%d across inline+named auto, want 1/1", st.PlanHits, st.PlanMisses)
	}
	if st.Catalog.Relations != 2 {
		t.Errorf("catalog relations %d, want 2", st.Catalog.Relations)
	}
}

func TestSubmitNamedErrors(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	if _, err := svc.SubmitSpec(context.Background(), JoinSpec{RName: "ghost", SName: "ghost"}); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("unknown names: err %v, want catalog.ErrNotFound", err)
	}
	r := rel.Gen{N: 128, Seed: 1}.Build()
	if _, err := svc.SubmitSpec(context.Background(), JoinSpec{RName: "half", S: r}); err == nil {
		t.Error("one name + one inline relation accepted")
	}
}

// TestSubmitBatchAdmission: a batch larger than the free slots plus the
// queue is rejected whole — no partial admission, no leaked slots or pins —
// while a batch that fits is admitted in one transaction.
func TestSubmitBatchAdmission(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 1, MaxQueue: 2})
	defer svc.Close()
	if _, err := svc.RegisterGen("r", rel.Gen{N: 20000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 20000, Seed: 2}, 1.0); err != nil {
		t.Fatal(err)
	}
	spec := JoinSpec{RName: "r", SName: "s", Opt: core.Options{Algo: core.PHJ, Scheme: core.DD, Delta: 0.1, PilotItems: 2048}}

	// 1 slot + 2 queue places: a batch of 4 must be rejected whole.
	if _, err := svc.SubmitBatch(context.Background(), []JoinSpec{spec, spec, spec, spec}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch: err %v, want ErrQueueFull", err)
	}
	st := svc.Stats()
	if st.Rejected != 4 || st.Submitted != 0 {
		t.Errorf("after rejection: rejected %d submitted %d, want 4/0", st.Rejected, st.Submitted)
	}
	// Rejection released every pin.
	if infos := svc.Relations(); infos[0].Pins != 0 || infos[1].Pins != 0 {
		t.Errorf("pins after rejection: %+v", infos)
	}

	// A batch of 3 fits (1 running + 2 queued) and completes.
	qs, err := svc.SubmitBatch(context.Background(), []JoinSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("batch returned %d queries, want 3", len(qs))
	}
	var ref *core.Result
	for i, q := range qs {
		res, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("batch query %d: %v", i, err)
		}
		if ref == nil {
			ref = res
		} else {
			compareResults(t, "batch", "query vs first", ref, res)
		}
	}
	st = svc.Stats()
	if st.Batches != 1 {
		t.Errorf("Batches %d, want 1", st.Batches)
	}
	if st.Completed != 3 {
		t.Errorf("Completed %d, want 3", st.Completed)
	}
}

// TestDropWhileQueryRunning: dropping a relation mid-query unbinds the
// name immediately but the running query keeps its pinned data and
// completes; the zero-copy bytes free once the query finishes.
func TestDropWhileQueryRunning(t *testing.T) {
	svc := New(Config{Workers: 2, MaxConcurrent: 1})
	defer svc.Close()
	if _, err := svc.RegisterGen("r", rel.Gen{N: 60000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 60000, Seed: 2}, 1.0); err != nil {
		t.Fatal(err)
	}
	spec := JoinSpec{RName: "r", SName: "s", Opt: core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, PilotItems: 2048}}
	q, err := svc.SubmitSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DropRelation("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DropRelation("s"); err != nil {
		t.Fatal(err)
	}
	// New names no longer resolve.
	if _, err := svc.SubmitSpec(context.Background(), spec); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("submit after drop: err %v, want catalog.ErrNotFound", err)
	}
	res, err := q.Wait(context.Background())
	if err != nil {
		t.Fatalf("query with dropped relations: %v", err)
	}
	if res.Matches <= 0 {
		t.Errorf("matches %d, want > 0", res.Matches)
	}
	// Pins drain asynchronously in finish; poll briefly for the free.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Catalog.Bytes != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if b := svc.Stats().Catalog.Bytes; b != 0 {
		t.Errorf("catalog bytes %d after last query finished, want 0", b)
	}
}
