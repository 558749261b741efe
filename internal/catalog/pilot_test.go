package catalog

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// planOpt is the planner configuration the pilot tests repeat.
var planOpt = core.Options{Delta: 0.25}

// planOn plans r ⋈ s through e and fails unless the plan is the uncached
// one.
func planOn(t *testing.T, e *Entry, r, s rel.Relation, opt core.Options) {
	t.Helper()
	want, err := core.BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.BuildPlan(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a plan over the registered build side differs from the uncached plan")
	}
}

// keptPilot reads the entry's pilot under the catalog's mutex.
func keptPilot(e *Entry) *core.Pilot {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	return e.pilot
}

// allocated is the heap a call allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestPilotSharesTheBudget: a plan over a registered build side keeps its
// pilot on the entry, charged to the budget and counted in
// BuildRecordBytes beside the entry's build record, and a later cold plan
// of another probe side probes it; plans count no build-record hit or
// miss. An unpinned entry's pilot is evicted for a reservation, and on a
// Drop, its slabs going back to the recycler: the next kept pilot of the
// same shape takes them instead of fresh memory. A pilot the budget cannot
// take is not kept, and every plan is the uncached one.
func TestPilotSharesTheBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := rel.Gen{N: 1 << 14, Seed: 1}.Build()
	s := rel.Gen{N: 1 << 14, Seed: 2}.Probe(r, 1.0)
	s2 := rel.Gen{N: 1<<14 + 16, Seed: 3}.Probe(r, 1.0)
	const room = 1 << 20 // the sealed pilot needs 16 B per sample tuple
	c := New(r.Bytes() + room)
	e := pinned(t, c, r)
	planOn(t, e, r, s, planOpt)
	p := keptPilot(e)
	st := c.Stats()
	if p == nil || st.BuildRecordBytes != p.Bytes() || st.Bytes != r.Bytes() || st.PeakBytes != r.Bytes()+p.Bytes() {
		t.Fatalf("after a cold plan: pilot %p, %d record bytes, %d bytes, peak %d", p, st.BuildRecordBytes, st.Bytes, st.PeakBytes)
	}
	planOn(t, e, r, s2, planOpt)
	if keptPilot(e) != p || c.Stats().BuildRecordBytes != p.Bytes() {
		t.Errorf("a plan of another probe side replaced the kept pilot")
	}
	if got := c.ReserveTransient(room); got != room-p.Bytes() || keptPilot(e) != p {
		t.Fatalf("reserved %d under the pin, want the free %d and the pilot kept", got, room-p.Bytes())
	} else {
		c.Unreserve(got)
	}
	Unpin(e)

	// Evicted, or dropped: the pilot's slabs go back, and the next cold
	// plan's pilot takes them.
	kept := p.Bytes()
	evict := func() {
		if got := c.ReserveTransient(room); got != room {
			t.Errorf("reserved %d of %d", got, room)
		} else {
			c.Unreserve(got)
		}
	}
	drop := func() {
		if _, err := c.Drop(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, free := range []struct {
		name string
		fn   func()
	}{{"eviction", evict}, {"Drop", drop}} {
		free.fn()
		if st := c.Stats(); st.BuildRecordBytes != 0 {
			t.Fatalf("after the %s: %d record bytes", free.name, st.BuildRecordBytes)
		}
		if free.name == "Drop" {
			e = load(t, c, r)
		}
		Pin(e)
		if got := allocated(func() { planOn(t, e, r, s, planOpt) }); got > kept/2 || keptPilot(e) == nil {
			t.Errorf("the cold plan after the %s allocated %d B, the pilot kept %d B: its slabs did not go back", free.name, got, kept)
		}
		Unpin(e)
	}

	// A join keeps its record beside the pilot, and only joins count as
	// build-record hits and misses.
	Pin(e)
	if _, err := e.Join(context.Background(), r, s, core.Options{Algo: core.SHJ, Scheme: core.DD, Delta: 0.25}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if e.rec == nil || st.BuildRecordBytes != kept+e.rec.Bytes() || st.BuildRecordHits != 0 || st.BuildRecordMisses != 1 {
		t.Errorf("after the plans and a join: %d record bytes, %d hits, %d misses", st.BuildRecordBytes, st.BuildRecordHits, st.BuildRecordMisses)
	}
	Unpin(e)

	// A pilot the budget cannot take is not kept.
	small := New(r.Bytes() + kept - 1)
	e = pinned(t, small, r)
	defer Unpin(e)
	planOn(t, e, r, s, planOpt)
	if st := small.Stats(); keptPilot(e) != nil || st.BuildRecordBytes != 0 || st.PeakBytes != r.Bytes() {
		t.Errorf("a full catalog kept pilot %p (%d record bytes, peak %d)", keptPilot(e), st.BuildRecordBytes, st.PeakBytes)
	}
}

// TestConcurrentColdPlansKeepOnePilot: eight cold plans on one pinned entry
// at once each build a pilot; the entry keeps exactly one, charged at its
// size, and all eight plans are the uncached plan.
func TestConcurrentColdPlansKeepOnePilot(t *testing.T) {
	r := rel.Gen{N: 4096, Seed: 85}.Build()
	s := rel.Gen{N: 4096, Seed: 86}.Probe(r, 1.0)
	c := New(0)
	e := pinned(t, c, r)
	defer Unpin(e)
	want, err := core.BuildPlan(r, s, planOpt)
	if err != nil {
		t.Fatal(err)
	}
	var plans [8]*core.Plan
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			pl, err := e.BuildPlan(r, s, planOpt)
			if err != nil {
				t.Error(err)
			}
			plans[i] = pl
		}()
	}
	close(start)
	wg.Wait()
	p := keptPilot(e)
	if st := c.Stats(); p == nil || st.BuildRecordBytes != p.Bytes() || st.BuildRecordHits+st.BuildRecordMisses != 0 {
		t.Fatalf("%d record bytes kept (%d hits, %d misses), want exactly one pilot's and no lookup", st.BuildRecordBytes, st.BuildRecordHits, st.BuildRecordMisses)
	}
	for i, pl := range plans {
		if !reflect.DeepEqual(pl, want) {
			t.Errorf("plan %d differs from the uncached plan", i)
		}
	}
}
