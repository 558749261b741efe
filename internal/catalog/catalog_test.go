package catalog

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"apujoin/internal/core"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// TestWorkloadMatchesInlineMeasurement is the statistics contract: the
// buckets assembled from a probe's ingest-time sample and membership in a
// build's key count table (what the service's router memoizes per
// registered pair) must equal plan.MeasureWorkload on the raw relations,
// for every workload class — otherwise registered and inline queries would
// fingerprint into different plan-cache slots.
func TestWorkloadMatchesInlineMeasurement(t *testing.T) {
	cases := []struct {
		name string
		dist rel.Distribution
		sel  float64
	}{
		{"uniform-sel1", rel.Uniform, 1.0},
		{"uniform-sel05", rel.Uniform, 0.5},
		{"low-skew", rel.LowSkew, 1.0},
		{"high-skew-sel02", rel.HighSkew, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rel.Gen{N: 1 << 15, Seed: 7}.Build()
			s := rel.Gen{N: 1 << 15, Dist: tc.dist, Seed: 8}.Probe(r, tc.sel)
			build, probe := Measure(r), Measure(s)
			got := plan.PairWorkload(probe.Sample, probe.SkewBucket, func(k int32) bool { return build.Counts.Of(k) > 0 })
			if want := plan.MeasureWorkload(r, s); got != want {
				t.Errorf("ingest-statistics workload %+v != inline measurement %+v", got, want)
			}
		})
	}
}

func TestRegisterLookupDrop(t *testing.T) {
	c := New(0)
	orders := rel.Gen{N: 1024, Seed: 1}.Build()
	if err := c.Load("orders", orders, rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Load("orders", rel.Gen{N: 16, Seed: 2}.Build(), rel.Counts{}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate load: err %v, want ErrExists", err)
	}
	if err := c.Load("lineitem", rel.Gen{N: 512, Seed: 3}.Build(), rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Relations != 2 || st.Bytes != (1024+512)*8 || st.Registered != 2 {
		t.Errorf("stats = %+v", st)
	}

	if bytes, err := c.Drop("orders"); err != nil || bytes != orders.Bytes() {
		t.Fatalf("drop: %d bytes, err %v", bytes, err)
	}
	if _, err := c.Acquire("orders"); !errors.Is(err, ErrNotFound) {
		t.Errorf("acquire after drop: err %v, want ErrNotFound", err)
	}
	if st := c.Stats(); st.Relations != 1 || st.Bytes != 512*8 || st.Dropped != 1 {
		t.Errorf("stats after drop = %+v, want bytes freed", st)
	}
	if _, err := c.Drop("orders"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop: err %v, want ErrNotFound", err)
	}
}

// TestDropWhilePinned: the name unbinds immediately but the resident bytes
// survive until the pin is released, and the pin keeps serving the slice
// and the count table it was loaded with after the name is loaded again.
func TestDropWhilePinned(t *testing.T) {
	c := New(0)
	r := rel.Gen{N: 1024, Seed: 1}.Build()
	if err := c.Load("r", r, Measure(r).Counts); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("r")
	if err != nil {
		t.Fatal(err)
	}
	if pins := c.Pins("r"); pins != 1 {
		t.Errorf("pins = %d, want 1", pins)
	}
	if _, err := c.Drop("r"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != 1024*8 {
		t.Errorf("bytes %d freed before last pin released", st.Bytes)
	}
	next := rel.Gen{N: 64, Seed: 2}.Build()
	if err := c.Load("r", next, Measure(next).Counts); err != nil {
		t.Fatal(err)
	}
	// The pinned entry still serves its data, and its own table.
	if e.Relation().Len() != 1024 || e.Counts().Len() != 1024 || e.Counts().Of(r.Keys[0]) != 1 {
		t.Errorf("pinned entry lost its data: %d tuples, %d counted keys", e.Relation().Len(), e.Counts().Len())
	}
	e.Release()
	if st := c.Stats(); st.Bytes != 64*8 {
		t.Errorf("bytes %d, want the reloaded relation's %d after the last release", st.Bytes, 64*8)
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := New(1024 * 8)
	if err := c.Load("fits", rel.Gen{N: 1024, Seed: 1}.Build(), rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	overflow := rel.Gen{N: 1, Seed: 2}.Build()
	if err := c.Load("overflow", overflow, rel.Counts{}); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overflow load: err %v, want ErrNoSpace", err)
	}
	if _, err := c.Drop("fits"); err != nil {
		t.Fatal(err)
	}
	if err := c.Load("overflow", overflow, rel.Counts{}); err != nil {
		t.Errorf("load after drop freed space: %v", err)
	}
}

// TestReserveAccounting: transient pipeline reservations share the budget
// with registered relations. ReserveTransient charges a demand in full when
// it fits, what fits at the edge, and nothing for a demand ≤ 0 or a full
// catalog; Unreserve of the returned amounts restores Bytes, and the
// PeakBytes high-water mark never decreases.
func TestReserveAccounting(t *testing.T) {
	const half = 512 * 8
	c := New(2 * half)
	if err := c.Load("half", rel.Gen{N: 512, Seed: 1}.Build(), rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	peak := c.Stats().PeakBytes
	step := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: charged %d, want %d", what, got, want)
		}
		st := c.Stats()
		if st.PeakBytes < peak || st.PeakBytes < st.Bytes {
			t.Errorf("%s: peak %d with %d bytes in use, was %d", what, st.PeakBytes, st.Bytes, peak)
		}
		peak = st.PeakBytes
	}
	full := c.ReserveTransient(half / 2)
	step("a demand that fits", full, half/2)
	edge := c.ReserveTransient(half)
	step("a demand at the edge", edge, half/2)
	step("a demand on a full catalog", c.ReserveTransient(8), 0)
	step("a zero demand", c.ReserveTransient(0), 0)
	step("a negative demand", c.ReserveTransient(-8), 0)
	if st := c.Stats(); st.Bytes != 2*half || st.PeakBytes != 2*half {
		t.Errorf("bytes %d, peak %d at capacity, want %d and %d", st.Bytes, st.PeakBytes, 2*half, 2*half)
	}

	c.Unreserve(edge)
	c.Unreserve(full)
	c.Unreserve(0)
	step("after Unreserve", 0, 0)
	if st := c.Stats(); st.Bytes != half || st.PeakBytes != 2*half {
		t.Errorf("bytes %d, peak %d after Unreserve, want %d and the high-water %d", st.Bytes, st.PeakBytes, half, 2*half)
	}
}

// TestBuildRecordsShareTheBudget: a build record is charged to the
// capacity beside the relations, and kept only when it fits; Bytes leaves
// it out and BuildRecordBytes counts it. A relation or reservation that
// would not fit evicts the records of unpinned entries first, never one a
// pinned entry's query may read; a relation that cannot fit even then
// evicts nothing. Every run answers as the uncached run.
func TestBuildRecordsShareTheBudget(t *testing.T) {
	r := rel.Gen{N: 4096, Seed: 1}.Build()
	s := rel.Gen{N: 4096, Seed: 2}.Probe(r, 1.0)
	opt := core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.25, PilotItems: 1024}
	want, err := core.Run(r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	const room = 1 << 20 // the sealed record needs about twice r's 32 KB
	c := New(r.Bytes() + s.Bytes() + room)
	for name, x := range map[string]rel.Relation{"r": r, "s": s} {
		if err := c.Load(name, x, rel.Counts{}); err != nil {
			t.Fatal(err)
		}
	}
	join := func() *Entry {
		t.Helper()
		e, err := c.Acquire("r")
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Join(context.Background(), r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("a join over the registered build side differs from the uncached run")
		}
		return e
	}
	join().Release()
	st := c.Stats()
	kept := st.BuildRecordBytes
	if kept <= 0 || kept > room || st.Bytes != r.Bytes()+s.Bytes() || st.PeakBytes != st.Bytes+kept {
		t.Fatalf("after a cold join: %d record bytes, %d bytes, peak %d", kept, st.Bytes, st.PeakBytes)
	}
	join().Release()
	if st := c.Stats(); st.BuildRecordHits != 1 || st.BuildRecordMisses != 1 || st.BuildRecordBytes != kept {
		t.Errorf("after a warm join: %d hits, %d misses, %d record bytes", st.BuildRecordHits, st.BuildRecordMisses, st.BuildRecordBytes)
	}

	// A pinned entry's record stays: the relation that needs its bytes is
	// refused, as is a reservation's demand beyond the free bytes.
	pin := join()
	big := rel.Gen{N: int(room/8) - 1, Seed: 3}.Build()
	if err := c.Load("big", big, rel.Counts{}); !errors.Is(err, ErrNoSpace) {
		t.Errorf("a load that needs a pinned entry's record bytes: err %v, want ErrNoSpace", err)
	}
	if got := c.ReserveTransient(room); got != room-kept {
		t.Errorf("reserved %d under the pin, want the %d free bytes", got, room-kept)
	} else {
		c.Unreserve(got)
	}
	if c.Stats().BuildRecordBytes != kept {
		t.Fatal("a pinned entry's record was evicted")
	}
	pin.Release()
	if got := c.ReserveTransient(room); got != room || c.Stats().BuildRecordBytes != 0 {
		t.Errorf("reserved %d of %d with %d record bytes left, want the whole room and none", got, room, c.Stats().BuildRecordBytes)
	} else {
		c.Unreserve(got)
	}

	// Evicted, the entry keeps the next cold join's record — through a
	// load it cannot make room for, until a load needs the room.
	join().Release()
	huge := rel.Gen{N: int(room/8) + 1, Seed: 4}.Build()
	if err := c.Load("huge", huge, rel.Counts{}); !errors.Is(err, ErrNoSpace) || c.Stats().BuildRecordBytes != kept {
		t.Fatalf("a load that cannot fit: err %v, %d record bytes left, want ErrNoSpace and %d", err, c.Stats().BuildRecordBytes, kept)
	}
	if err := c.Load("big", big, rel.Counts{}); err != nil || c.Stats().BuildRecordBytes != 0 {
		t.Fatalf("the load an unpinned record made room for: err %v, %d record bytes left", err, c.Stats().BuildRecordBytes)
	}

	// A record that does not fit is not kept.
	join().Release()
	if st := c.Stats(); st.BuildRecordBytes != 0 || st.BuildRecordMisses != 3 || st.Bytes != r.Bytes()+s.Bytes()+big.Bytes() {
		t.Errorf("a full catalog kept %d record bytes (%d misses, %d bytes)", st.BuildRecordBytes, st.BuildRecordMisses, st.Bytes)
	}
}

// TestJoinUnderAnotherKeyRunsUncached: once an entry keeps a record, a
// join under another key — other build ratios, another scheme — answers as
// its uncached run and counts a miss, and the entry keeps the record it
// held at the same bytes; a join under the kept key still hits it.
func TestJoinUnderAnotherKeyRunsUncached(t *testing.T) {
	r := rel.Gen{N: 4096, Seed: 5}.Build()
	s := rel.Gen{N: 4096, Seed: 6}.Probe(r, 1.0)
	opt := core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.25, PilotItems: 1024}
	ratios, dd := opt, opt
	ratios.FixedBuild = sched.Ratios{0.3}
	dd.Scheme = core.DD
	c := New(0)
	if err := c.Load("r", r, rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("r")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	misses := []int64{1, 2, 3, 4, 4} // after each join
	var first *core.BuildRecord
	for i, o := range []core.Options{opt, ratios, dd, ratios, opt} {
		want, err := core.Run(r, s, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Join(context.Background(), r, s, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("join %d differs from its uncached run", i)
		}
		c.mu.Lock()
		rec := e.rec
		c.mu.Unlock()
		if i == 0 {
			first = rec
		}
		if st := c.Stats(); rec == nil || rec != first || st.BuildRecordBytes != rec.Bytes() || st.BuildRecordMisses != misses[i] {
			t.Errorf("after join %d: %d record bytes, %d hits, %d misses", i, st.BuildRecordBytes, st.BuildRecordHits, st.BuildRecordMisses)
		}
	}
	if st := c.Stats(); st.BuildRecordHits != 1 || st.BuildRecordMisses != 4 {
		t.Errorf("%d hits and %d misses, want 1 and 4", st.BuildRecordHits, st.BuildRecordMisses)
	}
}

// TestConcurrentColdJoinsKeepOneRecord: eight cold joins on one pinned
// entry at once each build a table; the entry keeps exactly one, charged
// at its size, the rest go back, and all eight Results are the same.
func TestConcurrentColdJoinsKeepOneRecord(t *testing.T) {
	r := rel.Gen{N: 20000, Seed: 85}.Build()
	s := rel.Gen{N: 20000, Seed: 86}.Probe(r, 1.0)
	pool := sched.NewPool(2)
	defer pool.Close()
	opt := core.Options{Algo: core.PHJ, Scheme: core.PL, Delta: 0.25, PilotItems: 1024, Pool: pool}
	c := New(0)
	if err := c.Load("r", r, rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("r")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	var results [8]*core.Result
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := e.Join(context.Background(), r, s, opt)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	close(start)
	wg.Wait()
	c.mu.Lock()
	rec := e.rec
	c.mu.Unlock()
	if st := c.Stats(); rec == nil || st.BuildRecordBytes != rec.Bytes() || st.BuildRecordHits+st.BuildRecordMisses != 8 {
		t.Fatalf("%d record bytes kept (%d hits, %d misses), want exactly one record's", st.BuildRecordBytes, st.BuildRecordHits, st.BuildRecordMisses)
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(res, results[0]) {
			t.Errorf("join %d differs from join 0", i+1)
		}
	}
}

// TestDroppedEntryFreesRecordOnLastRelease: a Drop leaves a pinned entry's
// record to the queries that pin it — a join through the pin still probes
// it — and the last Release frees it with the entry's bytes.
func TestDroppedEntryFreesRecordOnLastRelease(t *testing.T) {
	r := rel.Gen{N: 4096, Seed: 1}.Build()
	s := rel.Gen{N: 4096, Seed: 2}.Probe(r, 1.0)
	opt := core.Options{Algo: core.PHJ, Scheme: core.DD, Delta: 0.25, PilotItems: 1024}
	c := New(0)
	if err := c.Load("r", r, rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("r")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Join(context.Background(), r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	kept := c.Stats().BuildRecordBytes
	if _, err := c.Drop("r"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.BuildRecordBytes != kept || kept <= 0 {
		t.Fatalf("the Drop freed the record under a pin: %d bytes kept, %d before", st.BuildRecordBytes, kept)
	}
	warm, err := e.Join(context.Background(), r, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); !reflect.DeepEqual(warm, cold) || st.BuildRecordHits != 1 {
		t.Errorf("the join through the pin after the Drop: %d hits, deep-equal %v", st.BuildRecordHits, reflect.DeepEqual(warm, cold))
	}
	e.Release()
	if st := c.Stats(); st.BuildRecordBytes != 0 || st.Bytes != 0 || e.rec != nil {
		t.Errorf("after the last Release: %d record bytes, %d bytes, record %p", st.BuildRecordBytes, st.Bytes, e.rec)
	}
}

// TestEntryAccessors: a pinned entry serves the slice exactly as it was
// loaded — the caller's key column, not a copy — and Pins follows the pins
// without taking one.
func TestEntryAccessors(t *testing.T) {
	c := New(0)
	in := rel.Gen{N: 4096, Seed: 1}.Build()
	if err := c.Load("base", in, rel.Counts{}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("base")
	if err != nil {
		t.Fatal(err)
	}
	if r := e.Relation(); r.Len() != 4096 || &r.Keys[0] != &in.Keys[0] {
		t.Errorf("Relation() is not the loaded key column (len %d)", r.Len())
	}
	if c.Pins("base") != 1 || c.Pins("absent") != 0 {
		t.Errorf("Pins: base %d absent %d, want 1 and 0", c.Pins("base"), c.Pins("absent"))
	}
	e.Release()
	if c.Pins("base") != 0 {
		t.Errorf("Pins after release = %d", c.Pins("base"))
	}
}

func TestLoadValidates(t *testing.T) {
	c := New(0)
	if err := c.Load("", rel.Relation{}, rel.Counts{}); err == nil {
		t.Error("loading under an empty name succeeded")
	}
}

// BenchmarkMeasure is catalog ingest's kernel: one registration's
// statistics — the strided sample, its skew bucket and the whole relation's
// key count table, fitted to its distinct keys — at the benchmark's
// relation sizes. The tables are kept, as a registered relation keeps its
// own, so B/op is what ingest holds per relation plus the sample: the
// generated build sides have distinct keys, 16–32 B per tuple.
func BenchmarkMeasure(b *testing.B) {
	for _, n := range []int{1 << 17, 1 << 20} {
		r := rel.Gen{N: n, Seed: 1}.Build()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Measure(r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
		})
	}
}
