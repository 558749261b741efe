package apujoin

import (
	"context"
	"reflect"
	"testing"
)

// TestRIDsAreIgnored: a relation is its key column. The same keys loaded
// bare, with dense RIDs, and with a RID column of the wrong length holding
// negative values are loaded, joined inline and by Ref, and fed through a
// pipeline, on an unsharded and on a sharded engine; every Result and
// PipelineResult is the bare keys'. The generators make no RID column.
func TestRIDsAreIgnored(t *testing.T) {
	g := Gen{N: 3000, Seed: 1}
	build := g.Build()
	probe := Gen{N: 4000, Dist: HighSkew, Seed: 2}.Probe(build, 0.8)
	for name, r := range map[string]Relation{"Build": build, "Probe": probe, "ZipfProbe": g.ZipfProbe(build, 0.8)} {
		if r.RIDs != nil {
			t.Errorf("Gen.%s made a RID column of %d values", name, len(r.RIDs))
		}
	}
	dense := make([]int32, build.Len())
	for i := range dense {
		dense[i] = int32(i)
	}
	versions := []Relation{
		{Keys: build.Keys},
		{Keys: build.Keys, RIDs: dense},
		{Keys: build.Keys, RIDs: []int32{-1, 7, -40}},
	}
	ctx := context.Background()
	opts := []JoinOption{WithDelta(0.25), WithPilotItems(1 << 8)}
	for _, shards := range []int{0, 4} {
		var want []any
		for v, r := range versions {
			eng := NewEngine(Workers(2), WithShards(shards))
			t.Cleanup(func() { eng.Close() })
			for i, rl := range []Relation{r, probe} {
				if _, err := eng.Load([]string{"r", "s"}[i], rl); err != nil {
					t.Fatalf("shards=%d version %d: load: %v", shards, v, err)
				}
			}
			inline, err := eng.Join(ctx, Inline(r), Inline(probe), opts...)
			if err != nil {
				t.Fatalf("shards=%d version %d: inline join: %v", shards, v, err)
			}
			ref, err := eng.Join(ctx, Ref("r"), Ref("s"), opts...)
			if err != nil {
				t.Fatalf("shards=%d version %d: join by Ref: %v", shards, v, err)
			}
			pr, err := eng.JoinPipeline(ctx, Pipeline{Sources: []Source{Ref("r"), Ref("s"), Inline(r)}, DeclaredOrder: true}, opts...)
			if err != nil {
				t.Fatalf("shards=%d version %d: pipeline: %v", shards, v, err)
			}
			if got := []any{inline, ref, pr}; v == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d: version %d's results differ from the bare keys'", shards, v)
			}
		}
	}
}
