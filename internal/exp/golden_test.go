package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"apujoin/internal/rel"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/*.csv from this run instead of comparing against them")

// goldenQuickTables is the model gate on the paper's own artifacts: every
// registered table, regenerated at the Quick size (the shapes the paper
// plots, in under two seconds for all of them) and rendered as CSV, must
// be byte-equal to testdata/quick/<id>.csv. The simulated clock is an exact
// function of data and options, so the tolerance is zero and the files are
// the same at any GOMAXPROCS. A change that moves the model on purpose
// regenerates them with
//
//	go test ./internal/exp -run Golden -update
//
// (the package goes before the flag: go test does not know -update) and
// the diff of testdata/ is the enumeration of what moved.
func goldenQuickTables(t *testing.T, datasets map[string]rel.Relation) {
	cfg := Config{Quick: true, Tuples: 1 << 16, MonteCarloRuns: 50, Delta: 0.1, Datasets: datasets}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			run, _ := Lookup(id)
			tab, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			var got bytes.Buffer
			if err := tab.FprintCSV(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "quick", id+".csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s moved (-update rewrites it)\n--- got\n%s--- golden\n%s", path, got.Bytes(), want)
			}
		})
	}
}

// The gate has two inputs and, because the first predates it, two names.
// TestAllExperimentsQuick generates every dataset inline.
// TestGoldenQuickTables backs dataset() with one dataset cache across all
// tables, as cmd/experiments does by default (-reuse-data): "results
// unchanged" there means the same bytes here.
func TestAllExperimentsQuick(t *testing.T) { goldenQuickTables(t, nil) }
func TestGoldenQuickTables(t *testing.T) {
	goldenQuickTables(t, map[string]rel.Relation{})
}

// TestFig4CalibrationTargets holds Fig. 4 to the targets the device
// constants were calibrated against, at 2^19 tuples: the GPU at least 10x
// ahead on the hash steps (n1, b1, p1), within 2x on the key-list walks
// (b3, p3) where divergence cancels its parallelism, and moderately ahead —
// strictly between the two — on every other step. The paper reports ">15x"
// on the hash steps (the table's Note); this model reaches 12.5x / 10.5x /
// 10.5x at this scale and under 10x at the Quick size, a recorded gap that
// is not to be closed by tuning a constant against this test.
func TestFig4CalibrationTargets(t *testing.T) {
	tab, err := Fig4(Config{Tuples: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("fig4 has %d steps, want n1..p4", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		step, cell := row[0], row[3]
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatalf("%s: CPU/GPU cell %q: %v", step, cell, err)
		}
		switch step {
		case "n1", "b1", "p1":
			if ratio < 10 {
				t.Errorf("hash step %s: GPU %s faster, want >= 10x", step, cell)
			}
		case "b3", "p3":
			if ratio > 2 {
				t.Errorf("key-list walk %s: GPU %s faster, want near parity (<= 2x)", step, cell)
			}
		default:
			if ratio <= 2 || ratio >= 10 {
				t.Errorf("step %s: GPU %s faster, want moderately ahead (between 2x and 10x)", step, cell)
			}
		}
	}
}
