// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-tuples N] [-delta D] [-mc RUNS] [-quick] [ids...]
//
// With no ids, every experiment runs in order. IDs match the paper's
// artifacts: table1, fig3..fig20, table3 (see DESIGN.md for the index).
// An unknown flag or id exits 2, a failed experiment 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"apujoin/internal/exp"
	"apujoin/internal/rel"
)

// errUsage marks a command line naming a flag or an experiment the command
// does not know.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and writes the tables of the experiments they name (all
// of them when none is named) to stdout; flag diagnostics go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tuples := fs.Int("tuples", 1<<20, "relation size standing in for the paper's 16M")
	delta := fs.Float64("delta", 0.05, "ratio grid granularity δ")
	mc := fs.Int("mc", 1000, "Monte Carlo runs for fig9")
	pilot := fs.Int("pilot", 1<<14, "profiling pilot sample size")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast pass")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	reuse := fs.Bool("reuse-data", true, "cache generated datasets so experiments sharing a shape generate them once (results unchanged)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	cfg := exp.Config{Tuples: *tuples, Delta: *delta, MonteCarloRuns: *mc, PilotItems: *pilot, Quick: *quick}
	if *reuse {
		// One cache across every experiment of the run: identical
		// (size, skew, selectivity) shapes generate once and stay
		// resident, like the service layer's registered relations.
		cfg.Datasets = map[string]rel.Relation{}
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	for _, id := range ids {
		driver, ok := exp.Lookup(id)
		if !ok {
			return fmt.Errorf("%w: unknown experiment %q; known: %v", errUsage, id, exp.IDs())
		}
		tab, err := driver(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		out := tab.Fprint
		if *asCSV {
			out = tab.FprintCSV
		}
		if err := out(stdout); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
