package apujoin

import (
	"context"
	"testing"
	"testing/quick"
)

// inlineJoiner starts an engine that closes when tb ends and returns a join
// of two inline relations under a whole Options struct on it: the root
// tests' one way to run an Options-driven join.
func inlineJoiner(tb testing.TB) func(r, s Relation, opt Options) (*Result, error) {
	eng := NewEngine()
	tb.Cleanup(func() { eng.Close() })
	return func(r, s Relation, opt Options) (*Result, error) {
		return eng.Join(context.Background(), Inline(r), Inline(s), WithOptions(opt))
	}
}

// TestAllVariantsAgreeOnMatches is the top-level correctness property: every
// algorithm × scheme × architecture combination must produce exactly the
// same match count as a naive map join, on every dataset shape.
func TestAllVariantsAgreeOnMatches(t *testing.T) {
	join := inlineJoiner(t)
	for _, dist := range []Distribution{Uniform, HighSkew} {
		r := Gen{N: 20000, Dist: dist, Seed: 3}.Build()
		s := Gen{N: 25000, Dist: dist, Seed: 4}.Probe(r, 0.7)
		want := NaiveJoinCount(r, s)

		run := func(name string, opt Options) {
			opt.Delta = 0.1
			opt.PilotItems = 4096
			res, err := join(r, s, opt)
			if err != nil {
				t.Fatalf("%v %s: %v", dist, name, err)
			}
			if res.Matches != want {
				t.Errorf("%v %s: matches %d, want %d", dist, name, res.Matches, want)
			}
		}

		run("SHJ/CPU", Options{Algo: SHJ, Scheme: CPUOnly})
		run("SHJ/GPU", Options{Algo: SHJ, Scheme: GPUOnly})
		run("SHJ/OL", Options{Algo: SHJ, Scheme: OL})
		run("SHJ/DD", Options{Algo: SHJ, Scheme: DD})
		run("SHJ/PL", Options{Algo: SHJ, Scheme: PL})
		run("SHJ/BasicUnit", Options{Algo: SHJ, Scheme: BasicUnit})
		run("PHJ/DD", Options{Algo: PHJ, Scheme: DD})
		run("PHJ/PL", Options{Algo: PHJ, Scheme: PL})
		run("PHJ/PL'", Options{Algo: PHJ, Scheme: CoarsePL})
		run("SHJ/DD/discrete", Options{Algo: SHJ, Scheme: DD, Arch: Discrete})
		run("PHJ/OL/discrete", Options{Algo: PHJ, Scheme: OL, Arch: Discrete})
		run("SHJ/DD/separate", Options{Algo: SHJ, Scheme: DD, SeparateTables: true})
		run("SHJ/PL/grouped", Options{Algo: SHJ, Scheme: PL, Grouping: true})
	}
}

// TestJoinMatchesProperty fuzzes dataset shapes against the naive oracle.
func TestJoinMatchesProperty(t *testing.T) {
	join := inlineJoiner(t)
	f := func(seed int64, selRaw uint8, phj bool) bool {
		sel := float64(selRaw%101) / 100
		r := Gen{N: 3000, Seed: seed}.Build()
		s := Gen{N: 3000, Seed: seed + 1}.Probe(r, sel)
		opt := Options{Scheme: PL, Delta: 0.25, PilotItems: 1024}
		if phj {
			opt.Algo = PHJ
		}
		res, err := join(r, s, opt)
		if err != nil {
			return false
		}
		return res.Matches == NaiveJoinCount(r, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPLBeatsSingleDeviceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale comparison")
	}
	join := inlineJoiner(t)
	r := Gen{N: 1 << 19, Seed: 5}.Build()
	s := Gen{N: 1 << 19, Seed: 6}.Probe(r, 1.0)
	times := map[string]float64{}
	for name, opt := range map[string]Options{
		"cpu": {Algo: SHJ, Scheme: CPUOnly},
		"gpu": {Algo: SHJ, Scheme: GPUOnly},
		"dd":  {Algo: SHJ, Scheme: DD},
		"pl":  {Algo: SHJ, Scheme: PL},
	} {
		opt.Delta = 0.05
		res, err := join(r, s, opt)
		if err != nil {
			t.Fatal(err)
		}
		times[name] = res.TotalNS
	}
	// The paper's headline ordering.
	if !(times["pl"] < times["dd"] && times["dd"] < times["gpu"] && times["gpu"] < times["cpu"]) {
		t.Errorf("expected pl < dd < gpu < cpu, got %v", times)
	}
	// And the magnitudes: PL improves over CPU-only and GPU-only by
	// double-digit percentages (paper: up to 53% / 35% / 28%).
	if imp := (times["cpu"] - times["pl"]) / times["cpu"]; imp < 0.3 {
		t.Errorf("PL vs CPU-only improvement only %.0f%%", imp*100)
	}
	if imp := (times["gpu"] - times["pl"]) / times["gpu"]; imp < 0.1 {
		t.Errorf("PL vs GPU-only improvement only %.0f%%", imp*100)
	}
	if imp := (times["dd"] - times["pl"]) / times["dd"]; imp < 0.02 {
		t.Errorf("PL vs DD improvement only %.0f%%", imp*100)
	}
}

func TestExternalJoinFacade(t *testing.T) {
	r := Gen{N: 1 << 16, Seed: 7}.Build()
	s := Gen{N: 1 << 16, Seed: 8}.Probe(r, 1.0)
	opt := Options{Algo: SHJ, Scheme: PL, Delta: 0.25, PilotItems: 2048}
	opt.ZeroCopy = ZeroCopyBuffer(1 << 19)
	eng := NewEngine()
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Join(ctx, Inline(r), Inline(s), WithOptions(opt)); err != ErrExceedsZeroCopy {
		t.Fatalf("expected ErrExceedsZeroCopy, got %v", err)
	}
	res, err := eng.JoinExternal(ctx, Inline(r), Inline(s), WithOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != NaiveJoinCount(r, s) {
		t.Fatalf("external matches %d", res.Matches)
	}
	if res.PartitionNS <= 0 || res.DataCopyNS <= 0 {
		t.Fatal("external join must report partition and copy time")
	}
}
