package service

import (
	"context"
	"reflect"
	"testing"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// TestAutoJoinKeepsPilot: an auto join over a registered build side keeps
// the plan's pilot on r's entry beside the join's build record, and
// build_record_bytes counts both; a cold plan of another registered probe
// side probes the kept pilot and keeps no second one. Every Result is the
// same join's run inline, where no entry keeps anything, and
// build_record_hits and build_record_misses count the joins alone.
func TestAutoJoinKeepsPilot(t *testing.T) {
	opt := core.Options{Delta: 0.25}
	r := rel.Gen{N: 1 << 14, Seed: 1}.Build()
	probes := []struct {
		name string
		g    rel.Gen
	}{{"s", rel.Gen{N: 1 << 14, Seed: 2}}, {"s2", rel.Gen{N: 1<<14 + 16, Seed: 5}}}
	pl, pilot, err := core.BuildPlanKept(r, probes[0].g.Probe(r, 1.0), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	pilotBytes := pilot.Bytes()
	pilot.Release()

	// The build record alone: the planned join with the plan injected, so
	// that no planner runs and no pilot is kept.
	ref := New(Config{Workers: 2})
	defer ref.Close()
	registerPair(t, ref, 1)
	planned := opt
	planned.Plan = pl
	mustJoin(t, ref, JoinSpec{RName: "r", SName: "s", Opt: planned})
	kept := recordBytes(ref) + pilotBytes

	svc := New(Config{Workers: 2})
	defer svc.Close()
	inline := New(Config{Workers: 2})
	defer inline.Close()
	registerPair(t, svc, 1)
	if _, err := svc.RegisterProbe("s2", "r", probes[1].g, 1.0); err != nil {
		t.Fatal(err)
	}
	for i, probe := range probes {
		got := mustJoin(t, svc, JoinSpec{RName: "r", SName: probe.name, Opt: opt, Auto: true})
		want := mustJoin(t, inline, JoinSpec{R: r, S: probe.g.Probe(r, 1.0), Opt: opt, Auto: true})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("the auto join of r and %s differs from its inline run", probe.name)
		}
		st := svc.Stats().Catalog
		if st.BuildRecordBytes != kept || st.BuildRecordHits+st.BuildRecordMisses != int64(i+1) {
			t.Errorf("after auto join %d: %d record bytes (%d hits, %d misses), want the record's and the pilot's %d", i, st.BuildRecordBytes, st.BuildRecordHits, st.BuildRecordMisses, kept)
		}
	}
	if got := svc.Stats().PlanMisses; got != 2 {
		t.Errorf("the two auto joins missed the plan cache %d times, want 2", got)
	}
}

// TestInvalidRelationsStillRefused: a registered build side is validated
// once, when it registers, and the joins and plans over it do not validate
// it again (core.RunKept, core.BuildPlanKept). A relation with a negative
// RID is still refused by catalog.Load, the router's Load, core.Run and
// core.BuildPlan, and a join or plan over a registered build side still
// refuses an invalid s.
func TestInvalidRelationsStillRefused(t *testing.T) {
	opt := core.Options{Delta: 0.25, PilotItems: 1024}
	good := rel.Gen{N: 4096, Seed: 1}.Build()
	bad := rel.Gen{N: 4096, Seed: 2}.Build()
	bad.RIDs[1000] = -1
	c := catalog.New(0)
	if err := c.Load("bad", bad, rel.Counts{}); err == nil {
		t.Error("catalog.Load took a relation with a negative RID")
	}
	svc := New(Config{Workers: 2})
	defer svc.Close()
	if _, err := svc.LoadRelation("bad", bad); err == nil {
		t.Error("the router's Load took a relation with a negative RID")
	}
	for _, pair := range [][2]rel.Relation{{bad, good}, {good, bad}} {
		if _, err := core.Run(pair[0], pair[1], opt); err == nil {
			t.Error("core.Run joined a relation with a negative RID")
		}
		if _, err := core.BuildPlan(pair[0], pair[1], opt); err == nil {
			t.Error("core.BuildPlan planned a relation with a negative RID")
		}
	}
	if err := c.Load("r", good, rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("r")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	if _, err := e.Join(context.Background(), good, bad, opt); err == nil {
		t.Error("Entry.Join joined a probe side with a negative RID")
	}
	if _, err := e.BuildPlan(good, bad, opt); err == nil {
		t.Error("Entry.BuildPlan planned a probe side with a negative RID")
	}
	if _, err := svc.LoadRelation("r", good); err != nil {
		t.Fatal(err)
	}
	for _, auto := range []bool{false, true} {
		if _, err := svc.RunJoin(context.Background(), JoinSpec{RName: "r", S: bad, Opt: opt, Auto: auto}); err == nil {
			t.Errorf("a join (auto %v) over a registered build side took a probe side with a negative RID", auto)
		}
	}
}
