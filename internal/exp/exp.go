// Package exp regenerates every table and figure of the paper's evaluation
// (Sec. 5 and the appendix). Each experiment returns a Table whose rows
// mirror what the paper plots; cmd/experiments prints them and the
// top-level benchmarks wrap them.
//
// The paper's default workload is 16M ⋈ 16M tuples on an A8-3870K. The
// drivers scale with Config.Tuples (default 2^20) so the whole suite runs
// in minutes; the shapes — who wins, by what factor, where crossovers
// fall — are the reproduction target, not absolute seconds.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"apujoin/internal/core"
	"apujoin/internal/rel"
)

// Config scales and seeds the experiment drivers.
type Config struct {
	// Tuples is the default relation size (paper: 16M).
	Tuples int
	// Seed makes data generation deterministic.
	Seed int64
	// Delta is the ratio-grid granularity handed to the cost model.
	Delta float64
	// PilotItems is the profiling sample size.
	PilotItems int
	// MonteCarloRuns is the number of random ratio settings for Fig. 9
	// (paper: 1000).
	MonteCarloRuns int
	// Quick shrinks sweeps for use in tests.
	Quick bool
	// Datasets, when non-nil, caches what dataset() generates, keyed by
	// shape: experiments sharing a (size, distribution, selectivity) shape
	// reuse one generated pair instead of regenerating it per driver.
	// Results are unchanged — drivers only read their inputs — only host
	// time shifts from generation to lookup. Not safe for concurrent
	// drivers.
	Datasets map[string]rel.Relation
}

// SetDefaults fills zero fields.
func (c *Config) SetDefaults() {
	if c.Tuples <= 0 {
		c.Tuples = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	if c.PilotItems <= 0 {
		c.PilotItems = 1 << 14
	}
	if c.MonteCarloRuns <= 0 {
		c.MonteCarloRuns = 1000
	}
	if c.Quick {
		if c.MonteCarloRuns > 100 {
			c.MonteCarloRuns = 100
		}
		if c.Tuples > 1<<17 {
			c.Tuples = 1 << 17
		}
	}
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FprintCSV renders the table as CSV (header row first), for piping into
// plotting tools.
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"experiment"}, t.Header...)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, r...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Runner is one experiment driver.
type Runner func(cfg Config) (*Table, error)

// registry maps experiment IDs to drivers; populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// Lookup returns the driver for an experiment ID (e.g. "fig7", "table3").
func Lookup(id string) (Runner, bool) {
	r, ok := registry[strings.ToLower(id)]
	return r, ok
}

// IDs returns all experiment IDs in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// --- shared helpers ---

// dataset builds an R⋈S pair with the given sizes, distribution and match
// selectivity. With cfg.Datasets set, each side is generated on first use
// under a shape-derived name and later experiments with the same shape
// reuse it.
func dataset(cfg Config, nr, ns int, dist rel.Distribution, selectivity float64) (rel.Relation, rel.Relation) {
	rg := rel.Gen{N: nr, Dist: dist, Seed: cfg.Seed}
	sg := rel.Gen{N: ns, Dist: dist, Seed: cfg.Seed + 1}
	if cfg.Datasets == nil {
		r := rg.Build()
		return r, sg.Probe(r, selectivity)
	}
	rname := fmt.Sprintf("R-n%d-%s-seed%d", nr, dist, cfg.Seed)
	sname := fmt.Sprintf("S-%s-n%d-sel%g", rname, ns, selectivity)
	r, ok := cfg.Datasets[rname]
	if !ok {
		r = rg.Build()
		cfg.Datasets[rname] = r
	}
	s, ok := cfg.Datasets[sname]
	if !ok {
		s = sg.Probe(r, selectivity)
		cfg.Datasets[sname] = s
	}
	return r, s
}

// baseOptions returns the default run options for a config.
func baseOptions(cfg Config, algo core.Algo, scheme core.Scheme) core.Options {
	return core.Options{
		Algo:       algo,
		Scheme:     scheme,
		Delta:      cfg.Delta,
		PilotItems: cfg.PilotItems,
	}
}

func ms(ns float64) string { return fmt.Sprintf("%.2f", ns/1e6) }
func pct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }
