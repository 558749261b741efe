package service

import (
	"reflect"
	"testing"

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
