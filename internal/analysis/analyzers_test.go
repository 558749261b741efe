package analysis

import "testing"

// runFixture asserts that a fixture's findings match its want annotations
// exactly — every annotated line flagged, nothing else flagged.
func runFixture(t *testing.T, fixture, asPath string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := CheckFixture(fixture, asPath, analyzers...)
	if err != nil {
		t.Fatalf("%s as %s: %v", fixture, asPath, err)
	}
	for _, p := range problems {
		t.Errorf("%s as %s: %s", fixture, asPath, p)
	}
}

// fixtureFindings runs the driver over a fixture and returns the raw
// findings (for scope tests, where the same source must flag at one
// import path and pass at another).
func fixtureFindings(t *testing.T, fixture, asPath string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(root, root+"/internal/analysis/testdata/src/"+fixture, asPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analyzePackage(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestDetMapOrder(t *testing.T) {
	runFixture(t, "detmaporder/a", "apujoin/internal/core", DetMapOrder)
}

func TestDetMapOrderPragmaHygiene(t *testing.T) {
	runFixture(t, "detmaporder/pragma", "apujoin/internal/catalog", DetMapOrder)
}

func TestDetMapOrderOutOfScope(t *testing.T) {
	// The same violations are silent outside the result-producing
	// packages — but the now-stale pragmas surface as hygiene errors, so
	// assert on the analyzer's own findings only.
	for _, f := range fixtureFindings(t, "detmaporder/a", "apujoin/internal/device", DetMapOrder) {
		if f.Analyzer == DetMapOrder.Name {
			t.Errorf("out-of-scope package flagged: %s", f)
		}
	}
}

func TestFloatSum(t *testing.T) {
	runFixture(t, "floatsum/a", "apujoin/internal/shard", FloatSum)
}

func TestNakedGo(t *testing.T) {
	runFixture(t, "nakedgo/a", "apujoin/internal/core", NakedGo)
}

func TestNakedGoScope(t *testing.T) {
	for _, asPath := range []string{
		"apujoin/internal/sched",
		"apujoin/internal/cluster",
		"apujoin/cmd/apujoind",
	} {
		if fs := fixtureFindings(t, "nakedgo/scope", asPath, NakedGo); len(fs) != 0 {
			t.Errorf("%s: allowed package flagged: %v", asPath, fs)
		}
	}
	fs := fixtureFindings(t, "nakedgo/scope", "apujoin/internal/service", NakedGo)
	if len(fs) != 1 {
		t.Errorf("disallowed package: want exactly 1 finding, got %v", fs)
	}
}

func TestWallClock(t *testing.T) {
	runFixture(t, "wallclock/a", "apujoin/internal/core", WallClock)
	runFixture(t, "wallclock/a", "apujoin/internal/device", WallClock)
}

func TestWallClockOutOfScope(t *testing.T) {
	// The service layer legitimately reads wall time (admission stamps,
	// health checks): the analyzer must not bind there.
	for _, f := range fixtureFindings(t, "wallclock/a", "apujoin/internal/service", WallClock) {
		if f.Analyzer == WallClock.Name {
			t.Errorf("out-of-scope package flagged: %s", f)
		}
	}
}

func TestEnvelope(t *testing.T) {
	runFixture(t, "envelope/a", "apujoin/internal/httpapi", Envelope)
}

func TestEnvelopeOutOfScope(t *testing.T) {
	for _, f := range fixtureFindings(t, "envelope/a", "apujoin/internal/service", Envelope) {
		if f.Analyzer == Envelope.Name {
			t.Errorf("out-of-scope package flagged: %s", f)
		}
	}
}

func TestSlabMake(t *testing.T) {
	runFixture(t, "slabmake/a", "apujoin/internal/core", SlabMake)
}

func TestSlabMakeOutOfScope(t *testing.T) {
	// Catalog-resident relations, rel.Gen and the service layer's chain-
	// owned buffers keep make: the analyzer binds to the four packages
	// that execute a join, nowhere else.
	for _, asPath := range []string{"apujoin/internal/rel", "apujoin/internal/service", "apujoin/internal/alloc"} {
		for _, f := range fixtureFindings(t, "slabmake/a", asPath, SlabMake) {
			if f.Analyzer == SlabMake.Name {
				t.Errorf("%s: out-of-scope package flagged: %s", asPath, f)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nosuchcheck"); ok {
		t.Error("ByName accepted an unknown analyzer")
	}
}
