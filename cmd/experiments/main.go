// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-tuples N] [-delta D] [-mc RUNS] [-quick] [ids...]
//
// With no ids, every experiment runs in order. IDs match the paper's
// artifacts: table1, fig3..fig20, table3 (see DESIGN.md for the index).
package main

import (
	"flag"
	"fmt"
	"os"

	"apujoin/internal/exp"
	"apujoin/internal/rel"
)

func main() {
	tuples := flag.Int("tuples", 1<<20, "relation size standing in for the paper's 16M")
	delta := flag.Float64("delta", 0.05, "ratio grid granularity δ")
	mc := flag.Int("mc", 1000, "Monte Carlo runs for fig9")
	pilot := flag.Int("pilot", 1<<14, "profiling pilot sample size")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	reuse := flag.Bool("reuse-data", true, "cache generated datasets so experiments sharing a shape generate them once (results unchanged)")
	flag.Parse()

	cfg := exp.Config{Tuples: *tuples, Delta: *delta, MonteCarloRuns: *mc, PilotItems: *pilot, Quick: *quick}
	if *reuse {
		// One cache across every experiment of the run: identical
		// (size, skew, selectivity) shapes generate once and stay
		// resident, like the service layer's registered relations.
		cfg.Datasets = map[string]rel.Relation{}
	}

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	for _, id := range ids {
		run, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", id, exp.IDs())
			os.Exit(2)
		}
		tab, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		out := tab.Fprint
		if *asCSV {
			out = tab.FprintCSV
		}
		if err := out(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
