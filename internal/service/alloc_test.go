package service

import (
	"context"
	"runtime/debug"
	"testing"

	"apujoin/internal/alloc"
	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// TestServedJoinAllocations holds one in-process served join — an auto
// join of two registered relations, submitted, admitted and waited for,
// its plan and its build record warm — to a ceiling of objects, a third
// of the 84 it made when every run built its devices, series and closures
// and every pooled step its batch. The collector is off, so that
// no allocation hides behind a collection.
func TestServedJoinAllocations(t *testing.T) {
	if alloc.PoisonOnPut {
		t.Skip("a race build allocates for the detector and drops recycled objects at random; the counts hold in plain builds")
	}
	const ceiling = 27
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	svc := New(Config{Workers: 2, MaxConcurrent: 2})
	defer svc.Close()
	if _, err := svc.RegisterGen("r", rel.Gen{N: 1 << 15, Seed: 55}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterProbe("s", "r", rel.Gen{N: 1 << 15, Seed: 56}, 0.9); err != nil {
		t.Fatal(err)
	}
	spec := JoinSpec{RName: "r", SName: "s", Auto: true, Opt: core.Options{PilotItems: 1 << 12}}
	join := func() {
		q, err := svc.SubmitSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	join()
	join()
	got := testing.AllocsPerRun(20, join)
	if got > ceiling {
		t.Errorf("a served join allocates %v times, above the ceiling of %v", got, ceiling)
	}
	t.Logf("a served join allocates %v times (ceiling %v)", got, ceiling)
}
