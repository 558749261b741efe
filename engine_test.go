package apujoin

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"apujoin/internal/catalog"
)

// TestEngineCatalogBitIdentical is the PR's acceptance contract: a join
// submitted via catalog Refs returns a Result bit-identical — matches,
// every simulated time, chosen ratios, profiles, step timings — to the
// same join submitted with inline relations generated from the identical
// specs. Checked for an explicit PHJ-DD configuration and for the
// auto-planned path.
func TestEngineCatalogBitIdentical(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()

	rg := Gen{N: 40000, Seed: 5}
	sg := Gen{N: 50000, Dist: HighSkew, Seed: 6}
	const sel = 0.6
	if _, err := eng.Register("orders", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterProbe("lineitem", "orders", sg, sel); err != nil {
		t.Fatal(err)
	}
	r := rg.Build()
	s := sg.Probe(r, sel)

	ctx := context.Background()
	modes := []struct {
		name string
		opts []JoinOption
	}{
		{"explicit PHJ-DD", []JoinOption{WithAlgo(PHJ), WithScheme(DD), WithDelta(0.1), WithPilotItems(1 << 11)}},
		{"auto", []JoinOption{WithAuto(), WithDelta(0.1), WithPilotItems(1 << 11)}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			byRef, err := eng.Join(ctx, Ref("orders"), Ref("lineitem"), m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			inline, err := eng.Join(ctx, Inline(r), Inline(s), m.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if byRef.Matches != inline.Matches {
				t.Errorf("matches %d (ref) != %d (inline)", byRef.Matches, inline.Matches)
			}
			if byRef.TotalNS != inline.TotalNS {
				t.Errorf("TotalNS %.3f (ref) != %.3f (inline)", byRef.TotalNS, inline.TotalNS)
			}
			if !reflect.DeepEqual(byRef, inline) {
				t.Errorf("full results differ between catalog ref and inline submission")
			}
			if byRef.Matches != NaiveJoinCount(r, s) {
				t.Errorf("matches %d != naive count %d", byRef.Matches, NaiveJoinCount(r, s))
			}
		})
	}
}

func TestEngineCatalogLifecycle(t *testing.T) {
	eng := NewEngine(CatalogCapacity(1 << 20))
	defer eng.Close()
	ctx := context.Background()

	if _, err := eng.Register("r", Gen{N: 10000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterProbe("s", "r", Gen{N: 10000, Seed: 2}, 1.0); err != nil {
		t.Fatal(err)
	}
	infos := eng.Relations()
	if len(infos) != 2 {
		t.Fatalf("relations = %d, want 2", len(infos))
	}
	if info, ok := eng.Relation("s"); !ok || info.ProbeOf != "r" || info.Selectivity != 1.0 {
		t.Errorf("probe info = %+v, ok=%v", info, ok)
	}

	// Mixed sources: one Ref, one Inline.
	inlineS := Gen{N: 10000, Seed: 2}.Probe(Gen{N: 10000, Seed: 1}.Build(), 1.0)
	res, err := eng.Join(ctx, Ref("r"), Inline(inlineS), WithDelta(0.1), WithPilotItems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches <= 0 {
		t.Errorf("mixed-source join matches = %d", res.Matches)
	}

	// Bulk load and count-only join.
	if _, err := eng.Load("bulk", inlineS); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Join(ctx, Ref("r"), Ref("bulk"), WithCountOnly(), WithDelta(0.1), WithPilotItems(1<<10)); err != nil {
		t.Fatal(err)
	}

	// Drop unbinds the name.
	if err := eng.Drop("bulk"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Join(ctx, Ref("r"), Ref("bulk")); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("join after drop: err %v, want catalog.ErrNotFound", err)
	}
	if err := eng.Drop("bulk"); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("double drop: err %v, want catalog.ErrNotFound", err)
	}

	// Capacity is enforced at registration.
	if _, err := eng.Register("huge", Gen{N: 1 << 20, Seed: 9}); !errors.Is(err, catalog.ErrNoSpace) {
		t.Errorf("oversized register: err %v, want catalog.ErrNoSpace", err)
	}
}

// TestEngineExternalFacade: the external-join path works through Engine
// sources as well.
func TestEngineExternalFacade(t *testing.T) {
	eng := NewEngine(CatalogCapacity(1 << 22))
	defer eng.Close()
	if _, err := eng.Register("r", Gen{N: 1 << 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterProbe("s", "r", Gen{N: 1 << 16, Seed: 2}, 1.0); err != nil {
		t.Fatal(err)
	}
	// Shrink the per-run zero-copy buffer so the pair exceeds it.
	opt := Options{Delta: 0.1, PilotItems: 1 << 10, ZeroCopy: ZeroCopyBuffer(1 << 19)}
	if _, err := eng.Join(context.Background(), Ref("r"), Ref("s"), WithOptions(opt)); !errors.Is(err, ErrExceedsZeroCopy) {
		t.Fatalf("in-buffer join of oversized pair: err %v, want ErrExceedsZeroCopy", err)
	}
	ext, err := eng.JoinExternal(context.Background(), Ref("r"), Ref("s"), WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Matches <= 0 {
		t.Errorf("external matches = %d, want > 0", ext.Matches)
	}
}

// TestEngineUnshardedJoinsResolveThroughTheRouter: an unsharded engine has
// no resolver of its own. A mixed Ref/Inline pair joins exactly like the
// all-inline pair, and an auto JoinExternal over two references plans from
// the router's memoized pair workload — the same memo Join's auto path
// uses, so the reuse counter moves on the second lookup of either kind.
func TestEngineUnshardedJoinsResolveThroughTheRouter(t *testing.T) {
	eng := NewEngine(Workers(2))
	defer eng.Close()
	rg, sg := Gen{N: 6000, Seed: 1}, Gen{N: 8000, Dist: LowSkew, Seed: 2}
	if _, err := eng.Register("r", rg); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterProbe("s", "r", sg, 0.7); err != nil {
		t.Fatal(err)
	}
	r := rg.Build()
	s := sg.Probe(r, 0.7)
	ctx := context.Background()
	opts := []JoinOption{WithAuto(), WithDelta(0.25), WithPilotItems(1 << 9)}

	inline, err := eng.Join(ctx, Inline(r), Inline(s), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]Source{"Ref⋈Inline": {Ref("r"), Inline(s)}, "Inline⋈Ref": {Inline(r), Ref("s")}} {
		mixed, err := eng.Join(ctx, pair[0], pair[1], opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mixed.Matches != inline.Matches || mixed.TotalNS != inline.TotalNS {
			t.Errorf("%s: %d matches in %v ns, the inline pair %d in %v", name, mixed.Matches, mixed.TotalNS, inline.Matches, inline.TotalNS)
		}
	}
	reuses := func() int64 { return eng.svc.Stats().Catalog.WorkloadReuses }
	if got := reuses(); got != 0 {
		t.Fatalf("workload reuses = %d before any registered pair was planned", got)
	}
	for i, want := range []int64{0, 1} {
		ext, err := eng.JoinExternal(ctx, Ref("r"), Ref("s"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if ext.Matches != inline.Matches {
			t.Errorf("external run %d: %d matches, want %d", i, ext.Matches, inline.Matches)
		}
		if got := reuses(); got != want {
			t.Errorf("external run %d: workload reuses = %d, want %d (the plan did not come from the router's memo)", i, got, want)
		}
	}
	if _, err := eng.Join(ctx, Ref("r"), Ref("s"), opts...); err != nil {
		t.Fatal(err)
	}
	if got := reuses(); got != 2 {
		t.Errorf("workload reuses = %d after Join reused the external join's memo, want 2", got)
	}
}
