package service

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"apujoin/internal/catalog"
	"apujoin/internal/core"
	"apujoin/internal/oracle"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/shard"
)

// keyGroup is the slice of r whose keys fall in group g when the keys are
// split into ways groups at a repartitioning level: a union of
// shard.PartitionAt's partitions, as a shard owns them (shard.Owner) — one
// group is the whole relation, eight are the grid itself.
func keyGroup(r rel.Relation, level, ways, g int) rel.Relation {
	var out rel.Relation
	for _, k := range r.Keys {
		if shard.Owner(shard.PartitionAt(k, level), ways) == g {
			out.Keys = append(out.Keys, k)
		}
	}
	return out
}

// ingestCase is a build relation and a probe of it.
type ingestCase struct {
	name         string
	build, probe rel.Relation
}

// ingestCountsCases are build relations whose keys are uniform, low-skew
// and high-skew — the skewed ones carry one key 10 and 25 % of the time —
// each with a probe drawn uniformly from the build's key domain at
// selectivity 0.2 and 1.0 (a probe as skewed as the build would make every
// join quadratic in the heavy key).
func ingestCountsCases() []ingestCase {
	base := rel.Gen{N: 1 << 12, Seed: 41}.Build()
	var cases []ingestCase
	for _, dist := range []rel.Distribution{rel.Uniform, rel.LowSkew, rel.HighSkew} {
		build := rel.Gen{N: 1 << 12, Dist: dist, Seed: 42}.Probe(base, 1.0)
		for _, sel := range []float64{0.2, 1.0} {
			probe := rel.Gen{N: 1 << 12, Seed: 43}.Probe(base, sel)
			cases = append(cases, ingestCase{fmt.Sprintf("%v/sel=%v", dist, sel), build, probe})
		}
	}
	return cases
}

// TestIngestCountsServeEveryPartition is the argument a pipeline's first
// step rests on when every grid partition's chain reads the build side's
// ingest-time count table instead of counting its own slice: grid
// partitions and spill levels split by key, so for every probe key of a
// slice the whole relation's count is the slice's. For key groups of 1, 2,
// 4 and 8 partitions at spill levels 0–2, the probe slice's multiplicities
// against the whole relation's table (catalog.Measure's) must equal those
// against its own slice's table, and so must the planner's membership
// buckets (plan.CountsWorkload).
func TestIngestCountsServeEveryPartition(t *testing.T) {
	for _, tc := range ingestCountsCases() {
		whole := catalog.Measure(tc.build).Counts
		for level := range 3 {
			for _, ways := range []int{1, 2, 4, 8} {
				for g := range ways {
					r, s := keyGroup(tc.build, level, ways, g), keyGroup(tc.probe, level, ways, g)
					local := rel.KeyCounts(r)
					got, want := core.Multiplicities(nil, whole, s.Keys), core.Multiplicities(nil, local, s.Keys)
					if got.Total != want.Total || !slices.Equal(got.Of, want.Of) {
						t.Errorf("%s level %d group %d/%d: whole-relation multiplicities (total %d) differ from the slice's (total %d)",
							tc.name, level, g, ways, got.Total, want.Total)
					}
					if gw, ww := plan.CountsWorkload(whole, s), plan.CountsWorkload(local, s); r.Len() > 0 && gw != ww {
						t.Errorf("%s level %d group %d/%d: whole-relation membership %+v, the slice's %+v", tc.name, level, g, ways, gw, ww)
					}
					got.Release()
					want.Release()
					local.Release()
				}
			}
		}
	}
}

// TestIngestCountsPipelineSteps runs the same cases through the service:
// a three-source pipeline whose first build side is registered, on every
// engine shape, under a budget that spills. Every step's matches must
// equal the map-backed oracle's, so a chain handed any table but one that
// counts its own keys fails here. The
// headroom is what the heavy key's partition needs to register on four
// shards; the uniform and low-skew selectivity-1 shapes still spill.
func TestIngestCountsPipelineSteps(t *testing.T) {
	third := rel.Gen{N: 1 << 12, Seed: 44}
	var spilled int64
	for _, tc := range ingestCountsCases() {
		u := third.Probe(tc.probe, 1.0)
		want := []int64{rel.NaiveJoinCount(tc.build, tc.probe), oracle.PipelineCount([]rel.Relation{tc.build, tc.probe, u})}
		for _, shards := range []int{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				sh := spillShape{rels: []rel.Relation{tc.build, tc.probe, u}, headroom: 32 << 10}
				svc := sh.loadOn(t, Config{Workers: 2, Shards: shards})
				pr := sh.exec(t, svc)
				for i, st := range pr.Steps {
					if st.OutTuples != want[i] {
						t.Errorf("step %d: %d matches, the hand-run chain %d", i+1, st.OutTuples, want[i])
					}
				}
				spilled += pr.SpilledPartitions
			})
		}
	}
	if spilled == 0 {
		t.Error("no shape spilled: no pre-check over an ingest table handed its chain to the spiller")
	}
}

// rebindBackend runs before, once, when the first pipeline binds, then
// binds through the backend it wraps: the window between the router's
// lookup of a pipeline's sources and the backend's pins on their slices.
type rebindBackend struct {
	backend
	before func()
}

func (b *rebindBackend) bindPipeline(j *pipeJob, sp PipelineSpec) ([]*catalog.Entry, error) {
	if f := b.before; f != nil {
		b.before = nil
		f()
	}
	return b.backend.bindPipeline(j, sp)
}

// TestIngestCountsFollowPins: a first source dropped and registered again
// between the router's lookup and the backend's bind runs on the new
// relation's slices, and its chains must read the count table its pins
// hold — the new relation's — not that of the record the router resolved.
// The old relation's table would size and fill the first intermediate for
// keys the new slices do not hold. Every step must equal a run on a service
// that only ever held the new relation, unsharded and on four shards.
func TestIngestCountsFollowPins(t *testing.T) {
	oldR := rel.Gen{N: 1 << 12, Seed: 1}.Build()
	newR := rel.Gen{N: 1 << 11, Seed: 5}.Build() // keys 1..2048 of the old 1..4096
	s := rel.Gen{N: 1 << 12, Seed: 2}.Probe(oldR, 1.0)
	u := rel.Gen{N: 1 << 11, Seed: 3}.Probe(oldR, 1.0)
	names := []string{"r", "s", "u"}
	load := func(svc *Service, rels ...rel.Relation) {
		for i, r := range rels {
			if _, err := svc.LoadRelation(names[i], r); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(svc *Service) (*PipelineResult, error) {
		spec := PipelineSpec{Opt: core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.1, Pool: svc.Pool()}, DeclaredOrder: true}
		for _, name := range names {
			spec.Sources = append(spec.Sources, PipelineSource{Name: name})
		}
		return svc.RunPipeline(context.Background(), spec)
	}
	wantMatches := oracle.PipelineCount([]rel.Relation{newR, s, u})
	for _, shards := range []int{0, 4} {
		ref := New(Config{Workers: 2, Shards: shards})
		defer ref.Close()
		load(ref, newR, s, u)
		want, err := run(ref)
		if err != nil {
			t.Fatal(err)
		}

		svc := New(Config{Workers: 2, Shards: shards})
		defer svc.Close()
		load(svc, oldR, s, u)
		svc.router.b = &rebindBackend{backend: svc.router.b, before: func() {
			if _, err := svc.DropRelation("r"); err != nil {
				t.Error(err)
			}
			load(svc, newR)
		}}
		got, err := run(svc)
		if err != nil {
			t.Fatalf("shards=%d: r re-registered before bind: %v", shards, err)
		}
		if got.Final.Matches != wantMatches {
			t.Errorf("shards=%d: %d final matches, the new relation's pipeline has %d", shards, got.Final.Matches, wantMatches)
		}
		for i := range want.Steps {
			if !reflect.DeepEqual(got.Steps[i].Result, want.Steps[i].Result) {
				t.Errorf("shards=%d: step %d differs from the run that only held the new relation", shards, i+1)
			}
		}
	}
}
