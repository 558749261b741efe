package core

import (
	"testing"

	"apujoin/internal/hash"
	"apujoin/internal/rel"
)

// TestHashShiftSubJoins exercises the hashShift plumbing the external join
// relies on: a sub-join over keys that all share their low hash bits must
// still spread across buckets and produce exact matches.
func TestHashShiftSubJoins(t *testing.T) {
	// Construct relations whose keys share low murmur bits by filtering a
	// larger uniform draw, mimicking one external partition pair.
	big := rel.Gen{N: 1 << 16, Seed: 31}.Build()
	var r rel.Relation
	const bits = 4
	for i, k := range big.Keys {
		if hashLow(k, bits) == 5 {
			r.Keys = append(r.Keys, k)
			r.RIDs = append(r.RIDs, big.RIDs[i])
		}
	}
	if r.Len() < 500 {
		t.Fatalf("filter too aggressive: %d tuples", r.Len())
	}
	s := rel.Gen{N: r.Len(), Seed: 32}.Probe(r, 1.0)
	want := rel.NaiveJoinCount(r, s)

	for _, algo := range []Algo{SHJ, PHJ} {
		opt := Options{Algo: algo, Scheme: PL, Delta: 0.25, PilotItems: 1024, hashShift: bits}
		res, err := Run(r, s, opt)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Matches != want {
			t.Errorf("%v shifted: matches %d want %d", algo, res.Matches, want)
		}
	}

	// Without the shift the same join still gives correct matches, just
	// with degenerate bucket usage — correctness must never depend on it.
	res, err := Run(r, s, Options{Algo: SHJ, Scheme: DD, Delta: 0.25, PilotItems: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Errorf("unshifted: matches %d want %d", res.Matches, want)
	}
}

// TestExternalScalesLinearly checks Fig. 19's scalability claim: doubling
// the data roughly doubles partition, join and copy time.
func TestExternalScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	run := func(n int) *ExternalResult {
		r := rel.Gen{N: n, Seed: 41}.Build()
		s := rel.Gen{N: n, Seed: 42}.Probe(r, 1.0)
		opt := Options{Algo: SHJ, Scheme: PL, Delta: 0.25, PilotItems: 2048}
		opt.SetDefaults()
		opt.ZeroCopy.Capacity = 1 << 21
		res, err := RunExternal(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1 << 17)
	b := run(1 << 18)
	ratio := b.TotalNS / a.TotalNS
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("2x data scaled total by %.2fx, expected ~2x", ratio)
	}
	if b.DataCopyNS/a.DataCopyNS < 1.8 || b.DataCopyNS/a.DataCopyNS > 2.2 {
		t.Errorf("copy time not linear: %.2fx", b.DataCopyNS/a.DataCopyNS)
	}
}

func hashLow(k int32, bits uint) uint32 {
	return hash.Murmur2(uint32(k), hash.Murmur2Seed) & ((1 << bits) - 1)
}
