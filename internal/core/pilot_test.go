package core

import (
	"fmt"
	"reflect"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// planEqual fails unless BuildPlanKept over kept returns BuildPlan's plan of
// the same workload, and returns the pilot it handed back.
func planEqual(tb testing.TB, r, s rel.Relation, opt Options, kept *Pilot) *Pilot {
	tb.Helper()
	want, err := BuildPlan(r, s, opt)
	if err != nil {
		tb.Fatal(err)
	}
	got, p, err := BuildPlanKept(r, s, opt, kept)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		tb.Errorf("a plan over a kept pilot differs from the uncached plan:\n uncached %+v\n kept     %+v", want, got)
	}
	return p
}

// TestKeptPilotPlansEqual: a plan is the same whether its pilot runs whole
// (BuildPlan), builds a pilot to keep (cold) or probes a kept one (warm) —
// with the pilot's sample size set by PilotItems, by |r| and by |s|, over
// uniform and high-skew data, with and without grouping, under the Basic
// and Block allocators; the warm plans probe the kept pilot with the cold
// plan's probe side and with others of the same sample size. A pilot kept
// under another key serves no plan: the plan runs uncached and keeps
// nothing.
func TestKeptPilotPlansEqual(t *testing.T) {
	shapes := []struct {
		name            string
		nr, ns, pilot   int
		warmNs, otherNs []int // warm probes under the same key, under another
	}{
		{"n=PilotItems", 3000, 2500, 1024, []int{2500, 4000}, nil},
		{"n=|r|", 1500, 2000, 1 << 16, []int{2000, 1500 + 16, 1500 + 48}, []int{1400}},
		{"n=|s|", 3000, 1800, 1 << 16, []int{1800}, []int{1700, 2000}},
	}
	for _, sh := range shapes {
		for _, dist := range []rel.Distribution{rel.Uniform, rel.HighSkew} {
			for _, grouping := range []bool{false, true} {
				for _, strategy := range []alloc.Strategy{alloc.Basic, alloc.Block} {
					name := fmt.Sprintf("%s/%v/grouping=%v/%v", sh.name, dist, grouping, strategy)
					t.Run(name, func(t *testing.T) {
						opt := Options{Grouping: grouping, Alloc: alloc.Config{Strategy: strategy}, PilotItems: sh.pilot, Delta: 0.1}
						r := rel.Gen{N: sh.nr, Dist: dist, Seed: 31}.Build()
						probe := func(ns, k int) rel.Relation {
							return rel.Gen{N: ns, Dist: dist, Seed: 40 + int64(k)}.Probe(r, 0.8)
						}
						p := planEqual(t, r, probe(sh.ns, 0), opt, nil)
						if p == nil || p.table.Head != nil {
							t.Fatalf("a cold plan handed back pilot %p, want a sealed one", p)
						}
						defer p.Release()
						for k, ns := range sh.warmNs {
							if got := planEqual(t, r, probe(ns, k), opt, p); got != p {
								t.Errorf("a warm plan with |s| = %d probed %p, not the kept pilot %p", ns, got, p)
							}
						}
						for k, ns := range sh.otherNs {
							if got := planEqual(t, r, probe(ns, 10+k), opt, p); got != nil {
								t.Errorf("a plan with |s| = %d, another sample size, handed back pilot %p", ns, got)
							}
						}
						other := opt
						other.Grouping = !grouping
						if got := planEqual(t, r, probe(sh.ns, 0), other, p); got != nil {
							t.Errorf("a plan with grouping=%v over a pilot kept with grouping=%v handed back pilot %p", !grouping, grouping, got)
						}
					})
				}
			}
		}
	}
}

// TestKeptPilotWorkingSet: a kept pilot's probe half runs under the
// resident size of the linked table its build half built (BytesResident,
// recorded before sealing), not under the size of the sealed layout.
func TestKeptPilotWorkingSet(t *testing.T) {
	r := rel.Gen{N: 3000, Seed: 5}.Build()
	s := rel.Gen{N: 3000, Seed: 6}.Probe(r, 0.8)
	opt := Options{PilotItems: 2048}
	_, p, err := BuildPlanKept(r, s, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	opt.SetDefaults()
	rn := newRunner(r.Slice(0, 2048), rel.Relation{}, opt)
	defer rn.release()
	rn.makeTables()
	exec := &sched.Exec{CPU: rn.cpu, GPU: rn.gpu, Env: rn.env.envFor}
	if _, err := exec.Run(rn.buildSeries(), sched.Uniform(0.5, 4)); err != nil {
		t.Fatal(err)
	}
	if want := rn.table.BytesResident(); p.tableBytes != want || p.Bytes() == want {
		t.Errorf("the kept pilot's working set is %d bytes (sealed: %d), want the linked table's %d", p.tableBytes, p.Bytes(), want)
	}
}
