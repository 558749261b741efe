package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// snapshotOpt is the explicit join every step of the snapshot test runs.
var snapshotOpt = core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.25}

// registerTrio registers r (2^12 generated tuples under seed) and two probe
// sides of it, s and u.
func registerTrio(t *testing.T, svc *Service, seed int64) {
	t.Helper()
	if _, err := svc.RegisterGen("r", rel.Gen{N: 1 << 12, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"s", "u"} {
		if _, err := svc.RegisterProbe(name, "r", rel.Gen{N: 1 << 12, Seed: seed + 1 + int64(i)}, 0.8); err != nil {
			t.Fatal(err)
		}
	}
}

// trioPipeline is the declared-order pipeline r ⋈ s ⋈ u over the names.
func trioPipeline(svc *Service) PipelineSpec {
	opt := snapshotOpt
	opt.Pool = svc.Pool()
	return PipelineSpec{Opt: opt, DeclaredOrder: true,
		Sources: []PipelineSource{{Name: "r"}, {Name: "s"}, {Name: "u"}}}
}

// pipelineSteps is what a pipeline answered: every step's result.
func pipelineSteps(pr *PipelineResult) []*core.Result {
	out := make([]*core.Result, len(pr.Steps))
	for i, st := range pr.Steps {
		out[i] = st.Result
	}
	return out
}

// TestShardedBindSnapshots: a query reads one snapshot of the catalog. On a
// sharded engine, where every name is eight partition entries, two join
// clients and one pipeline client run r ⋈ s and r ⋈ s ⋈ u in a loop while
// the names are dropped and registered again under alternating seeds. Every
// answer must be one registration's answer, bit for bit, or not_found: a
// query that pinned some partitions or names of one registration and the
// rest of another answers neither.
func TestShardedBindSnapshots(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Workers: 2, Shards: 4, MaxConcurrent: 4}
	join := JoinSpec{RName: "r", SName: "s", Opt: snapshotOpt}
	wantJoin := map[int64]*core.Result{}
	wantPipe := map[int64][]*core.Result{}
	for _, seed := range []int64{1, 4} {
		ref := New(cfg)
		registerTrio(t, ref, seed)
		wantJoin[seed] = mustJoin(t, ref, join)
		pr, err := ref.RunPipeline(ctx, trioPipeline(ref))
		if err != nil {
			t.Fatal(err)
		}
		wantPipe[seed] = pipelineSteps(pr)
		ref.Close()
	}

	svc := New(cfg)
	defer svc.Close()
	registerTrio(t, svc, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	client := func(query func() (bool, error)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ok, err := query()
			if errors.Is(err, catalog.ErrNotFound) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			if !ok {
				t.Error("a query answered as no single registration")
				return
			}
		}
	}
	for range 2 {
		wg.Add(1)
		go client(func() (bool, error) {
			res, err := svc.RunJoin(ctx, join)
			return err == nil && (reflect.DeepEqual(res, wantJoin[1]) || reflect.DeepEqual(res, wantJoin[4])), err
		})
	}
	wg.Add(1)
	go client(func() (bool, error) {
		pr, err := svc.RunPipeline(ctx, trioPipeline(svc))
		if err != nil {
			return false, err
		}
		got := pipelineSteps(pr)
		return reflect.DeepEqual(got, wantPipe[1]) || reflect.DeepEqual(got, wantPipe[4]), nil
	})
	for i := range 8 {
		for _, name := range []string{"s", "u", "r"} {
			if _, err := svc.DropRelation(name); err != nil {
				t.Fatal(err)
			}
		}
		registerTrio(t, svc, []int64{4, 1}[i%2])
	}
}
