package rel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestBuildUniformUniqueKeys(t *testing.T) {
	r := Gen{N: 10000, Seed: 1}.Build()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, k := range r.Keys {
		if seen[k] {
			t.Fatalf("duplicate key %d in uniform build relation", k)
		}
		seen[k] = true
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Gen{N: 1000, Seed: 7}.Build()
	b := Gen{N: 1000, Seed: 7}.Build()
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := Gen{N: 1000, Seed: 8}.Build()
	same := true
	for i := range a.Keys {
		if a.Keys[i] != c.Keys[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSkewHeavyKeyShareInProbe(t *testing.T) {
	for _, tc := range []struct {
		dist Distribution
		pct  int
	}{{LowSkew, 10}, {HighSkew, 25}} {
		g := Gen{N: 100000, Dist: tc.dist, Seed: 3}
		r := g.Build()
		s := g.Probe(r, 1.0)
		counts := map[int32]int{}
		for _, k := range s.Keys {
			counts[k]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		// The heavy foreign key should hold roughly pct% of probe tuples
		// (random overwrite collides with itself, so allow slack below).
		lo, hi := tc.pct*100000/100*80/100, tc.pct*100000/100*110/100
		if max < lo || max > hi {
			t.Errorf("%v: heavy key count %d not in [%d,%d]", tc.dist, max, lo, hi)
		}
	}
}

func TestSkewKeepsBuildKeysUnique(t *testing.T) {
	r := Gen{N: 10000, Dist: HighSkew, Seed: 3}.Build()
	seen := map[int32]bool{}
	for _, k := range r.Keys {
		if seen[k] {
			t.Fatal("skewed build relation has duplicate keys; skew must live in the probe side")
		}
		seen[k] = true
	}
}

func TestSkewJoinOutputLinear(t *testing.T) {
	g := Gen{N: 50000, Dist: HighSkew, Seed: 9}
	r := g.Build()
	s := g.Probe(r, 1.0)
	m := NaiveJoinCount(r, s)
	if m > int64(s.Len())*2 {
		t.Fatalf("skewed join output %d blew up past linear (%d probes)", m, s.Len())
	}
}

func TestProbeSelectivity(t *testing.T) {
	r := Gen{N: 50000, Seed: 5}.Build()
	inR := map[int32]bool{}
	for _, k := range r.Keys {
		inR[k] = true
	}
	for _, sel := range []float64{0, 0.125, 0.5, 1.0} {
		s := Gen{N: 50000, Seed: 6}.Probe(r, sel)
		matches := 0
		for _, k := range s.Keys {
			if inR[k] {
				matches++
			}
		}
		got := float64(matches) / float64(s.Len())
		if got < sel-0.02 || got > sel+0.02 {
			t.Errorf("selectivity %.3f: got %.3f matching fraction", sel, got)
		}
	}
}

func TestProbeSelectivityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for selectivity out of range")
		}
	}()
	r := Gen{N: 10, Seed: 1}.Build()
	Gen{N: 10, Seed: 2}.Probe(r, 1.5)
}

// TestValidateRejectsBadRelations: a length mismatch is an error, and a
// negative RID is named with its index exactly as a plain scan names it
// wherever it sits — the head, inside an eight-word block of the reduce,
// the tail past the last whole block — with later negatives behind it.
func TestValidateRejectsBadRelations(t *testing.T) {
	bad := Relation{RIDs: []int32{1, 2}, Keys: []int32{1}}
	if bad.Validate() == nil {
		t.Fatal("length mismatch not detected")
	}
	for _, n := range []int{1, 7, 8, 9, 16, 61, 1 << 10} {
		for _, at := range []int{0, n / 2, n - 1, n - n%8} {
			if at >= n {
				continue
			}
			rids := make([]int32, n)
			for i := range rids {
				rids[i] = int32(i)
			}
			rids[at] = -5 - int32(at)
			if at+1 < n {
				rids[n-1] = -1 // a later negative must not be the one named
			}
			want := fmt.Sprintf("rel: negative RID %d at index %d", rids[at], at)
			err := Relation{RIDs: rids, Keys: make([]int32, n)}.Validate()
			if err == nil || err.Error() != want {
				t.Fatalf("n=%d, negative at %d: Validate() = %v, want %q", n, at, err, want)
			}
		}
		ok := Relation{RIDs: make([]int32, n), Keys: make([]int32, n)}
		ok.RIDs[n-1] = math.MaxInt32
		if err := ok.Validate(); err != nil {
			t.Fatalf("n=%d, no negative RID: %v", n, err)
		}
	}
}

func TestSliceSharesBacking(t *testing.T) {
	r := Gen{N: 100, Seed: 1}.Build()
	s := r.Slice(10, 20)
	if s.Len() != 10 {
		t.Fatalf("slice length %d", s.Len())
	}
	s.Keys[0] = 42
	if r.Keys[10] != 42 {
		t.Fatal("slice does not share backing storage")
	}
}

func TestBytes(t *testing.T) {
	r := Gen{N: 1000, Seed: 1}.Build()
	if r.Bytes() != 8000 {
		t.Fatalf("bytes = %d, want 8000", r.Bytes())
	}
}

func TestNaiveJoinCountProperties(t *testing.T) {
	// |R ⋈ S| with unique R keys equals the number of S tuples whose key
	// is in R.
	f := func(seed int64) bool {
		g := Gen{N: 500, Seed: seed}
		r := g.Build()
		s := Gen{N: 500, Seed: seed + 1}.Probe(r, 0.5)
		inR := map[int32]bool{}
		for _, k := range r.Keys {
			inR[k] = true
		}
		var want int64
		for _, k := range s.Keys {
			if inR[k] {
				want++
			}
		}
		return NaiveJoinCount(r, s) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfProbeSkewGrowsWithTheta(t *testing.T) {
	r := Gen{N: 10000, Seed: 1}.Build()
	heavyShare := func(theta float64) float64 {
		s := Gen{N: 50000, Seed: 2}.ZipfProbe(r, theta)
		counts := map[int32]int{}
		for _, k := range s.Keys {
			counts[k]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(s.Len())
	}
	flat := heavyShare(0)
	mild := heavyShare(0.5)
	heavy := heavyShare(1.0)
	if !(flat < mild && mild < heavy) {
		t.Fatalf("zipf skew not monotone in theta: %v %v %v", flat, mild, heavy)
	}
	if heavy < 0.02 {
		t.Fatalf("theta=1 heaviest key share %v too small", heavy)
	}
}

func TestZipfProbeAllMatch(t *testing.T) {
	r := Gen{N: 1000, Seed: 3}.Build()
	s := Gen{N: 5000, Seed: 4}.ZipfProbe(r, 0.8)
	inR := map[int32]bool{}
	for _, k := range r.Keys {
		inR[k] = true
	}
	for _, k := range s.Keys {
		if !inR[k] {
			t.Fatal("zipf probe produced a non-matching key")
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZipfProbeEmptyBuild(t *testing.T) {
	s := Gen{N: 10, Seed: 5}.ZipfProbe(Relation{}, 1)
	if s.Len() != 10 {
		t.Fatal("wrong length")
	}
}

// BenchmarkValidate is the RID scan every join and plan runs on each input,
// over one 2^20-tuple column (apubench join_large's relation size).
func BenchmarkValidate(b *testing.B) {
	r := Gen{N: 1 << 20, Seed: 1}.Build()
	b.SetBytes(int64(r.Len()) * 4)
	for b.Loop() {
		if err := r.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
