package catalog

import (
	"errors"
	"fmt"
	"testing"

	"apujoin/internal/plan"
	"apujoin/internal/rel"
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

// TestEntryAccessors: a pinned entry serves the slice exactly as it was
// loaded — the caller's columns, not a copy — and Pins follows the pins
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
	if r := e.Relation(); r.Len() != 4096 || &r.Keys[0] != &in.Keys[0] || &r.RIDs[0] != &in.RIDs[0] {
		t.Errorf("Relation() is not the loaded columns (len %d)", r.Len())
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
	bad := rel.Relation{RIDs: []int32{0, 1}, Keys: []int32{5}}
	if err := c.Load("bad", bad, rel.Counts{}); err == nil {
		t.Error("loading a column-length-mismatched relation succeeded")
	}
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
