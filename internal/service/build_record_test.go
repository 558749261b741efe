package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// recordOpt is the explicit join the build-record tests repeat.
var recordOpt = core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.25, PilotItems: 1024}

// registerPair registers r (2^14 generated tuples under seed) and a probe
// side s against it.
func registerPair(t *testing.T, svc *Service, seed int64) {
	t.Helper()
	if _, err := svc.RegisterGen("r", rel.Gen{N: 1 << 14, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 1 << 14, Seed: seed + 1}, 1.0); err != nil {
		t.Fatal(err)
	}
}

// inlinePair is the join of registerPair's relations as an inline spec: no
// build record is involved.
func inlinePair(seed int64) JoinSpec {
	r := rel.Gen{N: 1 << 14, Seed: seed}.Build()
	return JoinSpec{R: r, S: rel.Gen{N: 1 << 14, Seed: seed + 1}.Probe(r, 1.0), Opt: recordOpt}
}

func mustJoin(t *testing.T, svc *Service, spec JoinSpec) *core.Result {
	t.Helper()
	res, err := svc.RunJoin(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func recordBytes(svc *Service) int64 { return svc.Stats().Catalog.BuildRecordBytes }

// awaitNoRecords polls the gauge to 0: a finished query's pins drain
// asynchronously.
func awaitNoRecords(t *testing.T, svc *Service) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); recordBytes(svc) != 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	if b := recordBytes(svc); b != 0 {
		t.Errorf("build records keep %d bytes after the last pin drained, want 0", b)
	}
}

// TestBuildRecordFreedWithLastPin: a join keeps its build side's table on
// the registered entry, where /v1/stats counts it; a repeat join probes it,
// counted as a hit;
// a Drop leaves it to the queries still pinning the entry, and the last pin
// frees it — the gauge returns to 0 and the recycler has the table's slabs
// back, so the next join of the same shape takes them instead of fresh
// memory.
func TestBuildRecordFreedWithLastPin(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	svc := New(Config{Workers: 2})
	defer svc.Close()
	registerPair(t, svc, 1)
	spec := JoinSpec{RName: "r", SName: "s", Opt: recordOpt}
	cold, err := svc.RunJoin(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	kept := recordBytes(svc)
	if kept <= 0 {
		t.Fatalf("the cold join kept no build record (%d bytes)", kept)
	}
	warm, err := svc.RunJoin(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) || recordBytes(svc) != kept {
		t.Fatalf("the warm join differs from the cold one, or keeps another record (%d bytes, %d before)", recordBytes(svc), kept)
	}
	if st := svc.Stats().Catalog; st.BuildRecordHits != 1 || st.BuildRecordMisses != 1 {
		t.Errorf("a cold and a warm join counted %d hits and %d misses, want 1 and 1", st.BuildRecordHits, st.BuildRecordMisses)
	}

	// A pin like an in-flight query's outlives the Drop, and so does the
	// table: the pinned entry still serves its warm run.
	r, s := svc.router.rels["r"], svc.router.rels["s"]
	pinR, pinS := r.entries[0], s.entries[0]
	catalog.Pin(pinR)
	catalog.Pin(pinS)
	defer catalog.Unpin(pinS)
	if _, err := svc.DropRelation("r"); err != nil {
		t.Fatal(err)
	}
	if recordBytes(svc) != kept {
		t.Fatalf("the Drop freed the record under a pin: %d bytes kept, want %d", recordBytes(svc), kept)
	}
	res, err := pinR.Join(ctx, r.parts[0], s.parts[0], recordOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, cold) {
		t.Error("the pinned entry's kept table answers differently after the Drop")
	}
	catalog.Unpin(pinR)
	awaitNoRecords(t, svc)

	inline := inlinePair(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustJoin(t, svc, inline)
	runtime.ReadMemStats(&after)
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > kept/2 {
		t.Errorf("a join of the freed table's shape allocated %d B, the table kept %d B: its slabs did not go back to the recycler", got, kept)
	}
}

// TestBuildRecordRaces covers the record's lifetime against the catalog's
// concurrency, under make race: concurrent cold joins on one entry keep
// exactly one record; a Drop while a warm join probes frees the record
// only after it; and a name dropped and re-registered never pairs the new
// entry with the old table.
func TestBuildRecordRaces(t *testing.T) {
	ctx := context.Background()
	spec := JoinSpec{RName: "r", SName: "s", Opt: recordOpt}

	t.Run("concurrent cold joins", func(t *testing.T) {
		one := New(Config{Workers: 2})
		defer one.Close()
		registerPair(t, one, 1)
		want, err := one.RunJoin(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Workers: 2, MaxConcurrent: 8})
		defer svc.Close()
		registerPair(t, svc, 1)
		var results [8]*core.Result
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := svc.RunJoin(ctx, spec)
				if err != nil {
					t.Error(err)
				}
				results[i] = res
			}()
		}
		wg.Wait()
		for i, res := range results {
			if !reflect.DeepEqual(res, want) {
				t.Errorf("concurrent join %d differs from the join run alone", i)
			}
		}
		if got, kept := recordBytes(svc), recordBytes(one); got != kept {
			t.Errorf("eight concurrent cold joins keep %d bytes of records, one join %d", got, kept)
		}
	})

	t.Run("drop while probing", func(t *testing.T) {
		svc := New(Config{Workers: 2})
		defer svc.Close()
		registerPair(t, svc, 1)
		cold, err := svc.RunJoin(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		kept := recordBytes(svc)
		// The warm join checks 7 step boundaries: s's radix pass (3), then
		// the probe (4). The Drop lands at the probe's second.
		var atDrop int64
		drop := dropAtBoundary(5, func() {
			if _, err := svc.DropRelation("r"); err != nil {
				t.Error(err)
			}
			atDrop = recordBytes(svc)
		})
		res, err := svc.RunJoin(drop, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !drop.fired() {
			t.Fatal("the join ended before the Drop")
		}
		if atDrop != kept {
			t.Errorf("the Drop freed the record a probing join reads: %d bytes kept, want %d", atDrop, kept)
		}
		if !reflect.DeepEqual(res, cold) {
			t.Error("the join probing across the Drop answers differently")
		}
		awaitNoRecords(t, svc)
	})

	t.Run("drop and re-register", func(t *testing.T) {
		svc := New(Config{Workers: 2, MaxConcurrent: 4})
		defer svc.Close()
		want := map[int64]*core.Result{1: mustJoin(t, svc, inlinePair(1)), 3: mustJoin(t, svc, inlinePair(3))}
		registerPair(t, svc, 1)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := svc.RunJoin(ctx, spec)
					if errors.Is(err, catalog.ErrNotFound) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(res, want[1]) && !reflect.DeepEqual(res, want[3]) {
						t.Error("a join paired a build side with another registration's table")
						return
					}
				}
			}()
		}
		for i := range 6 {
			for _, name := range []string{"s", "r"} {
				if _, err := svc.DropRelation(name); err != nil {
					t.Fatal(err)
				}
			}
			registerPair(t, svc, int64(1+2*((i+1)%2)))
		}
		close(stop)
		wg.Wait()
	})
}
