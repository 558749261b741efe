package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"apujoin/internal/exp"
)

// TestRunList: -list prints every experiment ID, one a line, and runs none.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(exp.IDs(), "\n") + "\n"; out.String() != want {
		t.Errorf("-list printed %q, want %q", out.String(), want)
	}
}

// TestRunUnknownID: an unknown experiment is a usage error that names it.
func TestRunUnknownID(t *testing.T) {
	err := run([]string{"fig99"}, io.Discard, io.Discard)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"fig99"`) {
		t.Errorf("experiments fig99: err %v, want a usage error naming it", err)
	}
}

// TestRunQuickCSV: the cheapest experiment, which runs no join, prints its
// table as CSV under the header line.
func TestRunQuickCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-csv", "table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	const want = "experiment,,CPU (APU),GPU (APU),GPU (Discrete)"
	if header, _, _ := strings.Cut(out.String(), "\n"); header != want {
		t.Errorf("header line %q, want %q", header, want)
	}
}
