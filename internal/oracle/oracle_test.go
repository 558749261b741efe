package oracle

import (
	"reflect"
	"testing"

	"apujoin/internal/rel"
)

func TestJoinCountAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rel.Gen{N: 500, Seed: seed}.Build()
		s := rel.Gen{N: 700, Dist: rel.HighSkew, Seed: seed + 10}.Probe(r, 0.5)
		if got, want := JoinCount(r, s), rel.NaiveJoinCount(r, s); got != want {
			t.Errorf("seed %d: JoinCount %d != NaiveJoinCount %d", seed, got, want)
		}
	}
}

// TestJoinReferenceOrder pins the canonical intermediate order on a
// hand-checkable example with duplicate build keys.
func TestJoinReferenceOrder(t *testing.T) {
	r := rel.Relation{Keys: []int32{7, 5, 7}}
	s := rel.Relation{Keys: []int32{5, 9, 7, 5}}
	got := Join(r, s)
	want := rel.Relation{Keys: []int32{5, 7, 7, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Join = %+v, want %+v", got, want)
	}
	if int64(got.Len()) != JoinCount(r, s) {
		t.Errorf("Join len %d != JoinCount %d", got.Len(), JoinCount(r, s))
	}
}

// TestMaterializeMatchesOracle: the engine's intermediate materialization
// equals the independently written reference, tuple for tuple.
func TestMaterializeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rel.Gen{N: 300, Seed: seed}.Build()
		s := rel.Gen{N: 450, Dist: rel.LowSkew, Seed: seed + 20}.Probe(r, 0.7)
		got, want := rel.JoinMaterialize(r, s), Join(r, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: JoinMaterialize diverges from the oracle join", seed)
		}
	}
	// Duplicate build keys multiply output tuples.
	r := rel.Relation{Keys: []int32{4, 4, 9}}
	s := rel.Relation{Keys: []int32{4, 9}}
	if got, want := rel.JoinMaterialize(r, s), Join(r, s); !reflect.DeepEqual(got, want) {
		t.Errorf("duplicate-key JoinMaterialize = %+v, want %+v", got, want)
	}
}

func TestPipelineCount(t *testing.T) {
	a := rel.Relation{Keys: []int32{1, 2, 3}}
	b := rel.Relation{Keys: []int32{2, 2, 3, 5}}
	c := rel.Relation{Keys: []int32{2, 3, 3, 3}}
	// key 2: 1·2·1 = 2; key 3: 1·1·3 = 3.
	if got := PipelineCount([]rel.Relation{a, b, c}); got != 5 {
		t.Errorf("PipelineCount = %d, want 5", got)
	}
	// Order independence.
	if got := PipelineCount([]rel.Relation{c, a, b}); got != 5 {
		t.Errorf("reordered PipelineCount = %d, want 5", got)
	}
	// Degenerate forms.
	if got := PipelineCount(nil); got != 0 {
		t.Errorf("empty PipelineCount = %d, want 0", got)
	}
	if got := PipelineCount([]rel.Relation{a, b}); got != rel.NaiveJoinCount(a, b) {
		t.Errorf("pairwise PipelineCount = %d, want %d", got, rel.NaiveJoinCount(a, b))
	}
	// Chaining the pairwise oracle through materialized intermediates must
	// agree with the closed form.
	inter := Join(a, b)
	if got := JoinCount(inter, c); got != 5 {
		t.Errorf("chained oracle count = %d, want 5", got)
	}
}
