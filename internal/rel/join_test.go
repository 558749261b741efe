package rel

import (
	"reflect"
	"testing"
)

// TestJoinMaterialize pins the intermediate contract: probe order, a probe
// tuple's matches in build order, multiplicity for duplicate build keys, no
// RID column, and the zero relation (a nil key column) for an empty join.
func TestJoinMaterialize(t *testing.T) {
	r := Relation{Keys: []int32{7, 5, 7}}
	s := Relation{Keys: []int32{5, 9, 7, 5}}
	got := JoinMaterialize(r, s)
	want := Relation{Keys: []int32{5, 7, 7, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JoinMaterialize = %+v, want %+v", got, want)
	}
	if int64(got.Len()) != NaiveJoinCount(r, s) {
		t.Errorf("len %d != naive count %d", got.Len(), NaiveJoinCount(r, s))
	}

	// Empty join → the zero relation, not empty non-nil columns: pipeline
	// intermediates and tuple-at-a-time references must compare equal.
	disjoint := Relation{Keys: []int32{42}}
	if got := JoinMaterialize(r, disjoint); !reflect.DeepEqual(got, Relation{}) {
		t.Errorf("empty join = %+v, want the zero relation", got)
	}
	if got := JoinMaterialize(Relation{}, Relation{}); !reflect.DeepEqual(got, Relation{}) {
		t.Errorf("empty inputs = %+v, want the zero relation", got)
	}

	// Generated data: length always equals the reference count.
	br := Gen{N: 2000, Seed: 1}.Build()
	pr := Gen{N: 3000, Dist: HighSkew, Seed: 2}.Probe(br, 0.4)
	if got := JoinMaterialize(br, pr); int64(got.Len()) != NaiveJoinCount(br, pr) {
		t.Errorf("generated: len %d != naive count %d", got.Len(), NaiveJoinCount(br, pr))
	}
}
