package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"apujoin"
	"apujoin/internal/oracle"
)

// TestRunRejects: every out-of-range flag value is an error, before any
// join runs.
func TestRunRejects(t *testing.T) {
	cases := map[string]struct{ args, err string }{
		"negative workers":        {"-workers -1", "-workers -1 is negative"},
		"empty build relation":    {"-r 0", "relation sizes must be positive"},
		"selectivity above one":   {"-sel 1.5", "-sel 1.5 out of [0,1]"},
		"one-source pipeline":     {"-pipeline 5", "-pipeline needs at least 2 comma-separated sizes (got 1)"},
		"non-numeric pipeline":    {"-pipeline 5,x", `-pipeline element 2 ("x") is not a positive tuple count`},
		"unknown algorithm":       {"-algo x", `unknown algo "x"`},
		"unknown scheme":          {"-scheme x", `unknown scheme "x"`},
		"unknown flag":            {"-bogus 1", "not defined"},
		"unknown skew":            {"-skew x", `unknown skew "x"`},
		"unknown architecture":    {"-arch x", `unknown arch "x"`},
		"non-numeric selectivity": {"-sel x", "invalid value"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := run(strings.Fields(tc.args), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("apujoin %s: err %v, want one containing %q", tc.args, err, tc.err)
			}
		})
	}
}

// TestRunJoin: one registered 2^12 join reports the naive join's matches.
func TestRunJoin(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-algo phj -scheme pl -r 4096 -s 4096 -sel 0.5 -delta 0.1 -workers 2"), &out); err != nil {
		t.Fatal(err)
	}
	r := apujoin.Gen{N: 4096, Seed: 42}.Build()
	s := apujoin.Gen{N: 4096, Seed: 43}.Probe(r, 0.5)
	want := fmt.Sprintf("PHJ-PL on coupled: 4096 ⋈ 4096 tuples → %d matches\n", apujoin.NaiveJoinCount(r, s))
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}

// TestRunPipeline: a three-source pipeline runs cost-ordered and reports
// the multi-way oracle's matches.
func TestRunPipeline(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-pipeline 4096,4096,1024 -sel 0.5 -delta 0.1 -workers 2"), &out); err != nil {
		t.Fatal(err)
	}
	r := apujoin.Gen{N: 4096, Seed: 42}.Build()
	rels := []apujoin.Relation{r,
		apujoin.Gen{N: 4096, Seed: 43}.Probe(r, 0.5),
		apujoin.Gen{N: 1024, Seed: 44}.Probe(r, 0.5)}
	for _, want := range []string{
		"pipeline over 3 sources (cost-based order)",
		fmt.Sprintf("final: %d matches", oracle.PipelineCount(rels)),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
