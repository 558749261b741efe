package catalog

import (
	"errors"
	"testing"

	"apujoin/internal/plan"
	"apujoin/internal/rel"
)

// TestWorkloadMatchesInlineMeasurement is the statistics contract: the
// buckets the catalog assembles from its ingest-time sample and key index
// must equal plan.MeasureWorkload on the raw relations, for every workload
// class — otherwise catalog-referenced and inline queries would
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
			c := New(0)
			g := rel.Gen{N: 1 << 15, Seed: 7}
			if _, err := c.RegisterGen("r", g); err != nil {
				t.Fatal(err)
			}
			pg := rel.Gen{N: 1 << 15, Dist: tc.dist, Seed: 8}
			if _, err := c.RegisterProbe("s", "r", pg, tc.sel); err != nil {
				t.Fatal(err)
			}
			re, err := c.Acquire("r")
			if err != nil {
				t.Fatal(err)
			}
			defer re.Release()
			se, err := c.Acquire("s")
			if err != nil {
				t.Fatal(err)
			}
			defer se.Release()

			got := c.Workload(re, se)
			want := plan.MeasureWorkload(re.Relation(), se.Relation())
			if got != want {
				t.Errorf("catalog workload %+v != inline measurement %+v", got, want)
			}
			// And the probe itself must be bit-identical to inline generation.
			inline := pg.Probe(re.Relation(), tc.sel)
			sr := se.Relation()
			if len(inline.Keys) != len(sr.Keys) {
				t.Fatalf("probe length %d != inline %d", len(sr.Keys), len(inline.Keys))
			}
			for i := range inline.Keys {
				if inline.Keys[i] != sr.Keys[i] || inline.RIDs[i] != sr.RIDs[i] {
					t.Fatalf("probe tuple %d differs from inline generation", i)
				}
			}
			// The memoized second lookup counts as a reuse.
			if again := c.Workload(re, se); again != got {
				t.Errorf("memoized workload %+v != first %+v", again, got)
			}
			if st := c.Stats(); st.WorkloadReuses != 1 {
				t.Errorf("workload reuses = %d, want 1", st.WorkloadReuses)
			}
		})
	}
}

func TestRegisterLookupDrop(t *testing.T) {
	c := New(0)
	info, err := c.RegisterGen("orders", rel.Gen{N: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != 1024 || info.Bytes != 1024*8 || info.Source != Generated {
		t.Errorf("unexpected info: %+v", info)
	}
	if _, err := c.RegisterGen("orders", rel.Gen{N: 16, Seed: 2}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate register: err %v, want ErrExists", err)
	}
	if _, err := c.RegisterProbe("x", "missing", rel.Gen{N: 16}, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("probe of missing build: err %v, want ErrNotFound", err)
	}

	loaded := rel.Gen{N: 512, Seed: 3}.Build()
	if _, err := c.Load("lineitem", loaded); err != nil {
		t.Fatal(err)
	}
	list := c.List()
	if len(list) != 2 || list[0].Name != "lineitem" || list[1].Name != "orders" {
		t.Fatalf("list = %+v, want [lineitem orders]", list)
	}
	if st := c.Stats(); st.Relations != 2 || st.Bytes != (1024+512)*8 {
		t.Errorf("stats = %+v", st)
	}

	if _, err := c.Drop("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("orders"); !errors.Is(err, ErrNotFound) {
		t.Errorf("acquire after drop: err %v, want ErrNotFound", err)
	}
	if st := c.Stats(); st.Relations != 1 || st.Bytes != 512*8 {
		t.Errorf("stats after drop = %+v, want bytes freed", st)
	}
	if _, err := c.Drop("orders"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop: err %v, want ErrNotFound", err)
	}
}

// TestDropWhilePinned: the name unbinds immediately but the resident bytes
// survive until the pin is released.
func TestDropWhilePinned(t *testing.T) {
	c := New(0)
	if _, err := c.RegisterGen("r", rel.Gen{N: 1024, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("r")
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Drop("r")
	if err != nil {
		t.Fatal(err)
	}
	if info.Pins != 1 {
		t.Errorf("drop info pins = %d, want 1", info.Pins)
	}
	if st := c.Stats(); st.Bytes != 1024*8 {
		t.Errorf("bytes %d freed before last pin released", st.Bytes)
	}
	// The pinned entry still serves its data.
	if e.Relation().Len() != 1024 {
		t.Errorf("pinned relation lost its data")
	}
	e.Release()
	if st := c.Stats(); st.Bytes != 0 {
		t.Errorf("bytes %d not freed after last release", st.Bytes)
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := New(1024 * 8)
	if _, err := c.RegisterGen("fits", rel.Gen{N: 1024, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterGen("overflow", rel.Gen{N: 1, Seed: 2}); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overflow register: err %v, want ErrNoSpace", err)
	}
	if _, err := c.Drop("fits"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterGen("overflow", rel.Gen{N: 1, Seed: 2}); err != nil {
		t.Errorf("register after drop freed space: %v", err)
	}
}

// TestReserveAccounting: transient pipeline reservations share the budget
// with registered relations — a reservation to capacity fits, overflow is
// ErrNoSpace, Unreserve returns the bytes — and the PeakBytes high-water
// mark records the worst simultaneous residency either path reached.
func TestReserveAccounting(t *testing.T) {
	c := New(1024 * 8)
	if _, err := c.RegisterGen("half", rel.Gen{N: 512, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(512 * 8); err != nil {
		t.Fatalf("reserve to capacity: %v", err)
	}
	if err := c.Reserve(8); !errors.Is(err, ErrNoSpace) {
		t.Errorf("reserve beyond capacity: err %v, want ErrNoSpace", err)
	}
	if err := c.Reserve(-1); err == nil {
		t.Error("negative reservation accepted")
	}
	c.Unreserve(512 * 8)
	st := c.Stats()
	if st.Bytes != 512*8 {
		t.Errorf("bytes %d after unreserve, want %d", st.Bytes, 512*8)
	}
	if st.PeakBytes != 1024*8 {
		t.Errorf("peak %d, want the full-capacity high-water %d", st.PeakBytes, 1024*8)
	}
	// Unreserve of nothing is a no-op; the peak never decreases.
	c.Unreserve(0)
	if st := c.Stats(); st.PeakBytes != 1024*8 {
		t.Errorf("peak moved to %d on a no-op", st.PeakBytes)
	}
}

// TestEntryAccessors: the pinned-entry accessors surface the ingest-time
// measurements, and Get/Relation resolve without pinning.
func TestEntryAccessors(t *testing.T) {
	c := New(0)
	if _, err := c.RegisterGen("base", rel.Gen{N: 4096, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// Build keys are a permutation (uniform by construction); skew lives in
	// probe relations, so the skewed entry is a high-skew probe.
	if _, err := c.RegisterProbe("skewed", "base", rel.Gen{N: 4096, Dist: rel.HighSkew, Seed: 2}, 1.0); err != nil {
		t.Fatal(err)
	}
	e, err := c.Acquire("skewed")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	if e.Name() != "skewed" {
		t.Errorf("Name() = %q", e.Name())
	}
	if e.SkewBucket() <= 0 || e.HeavyShare() <= 0 {
		t.Errorf("high-skew ingest measured bucket %d share %f", e.SkewBucket(), e.HeavyShare())
	}
	info, ok := c.Get("skewed")
	if !ok || info.Tuples != 4096 || info.SkewBucket != e.SkewBucket() {
		t.Errorf("Get: ok=%v info=%+v", ok, info)
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("Get resolved an absent name")
	}
	if r, ok := c.Relation("skewed"); !ok || r.Len() != 4096 {
		t.Errorf("Relation: ok=%v len=%d", ok, r.Len())
	}
	if _, ok := c.Relation("absent"); ok {
		t.Error("Relation resolved an absent name")
	}
}

func TestLoadValidates(t *testing.T) {
	c := New(0)
	bad := rel.Relation{RIDs: []int32{0, 1}, Keys: []int32{5}}
	if _, err := c.Load("bad", bad); err == nil {
		t.Error("loading a column-length-mismatched relation succeeded")
	}
	if _, err := c.Load("", rel.Relation{}); err == nil {
		t.Error("loading under an empty name succeeded")
	}
}
