package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirModuleRoot moves the test into the module root (run resolves
// patterns against the working directory, like the go tool).
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	out, err := os.ReadFile("../../go.mod")
	if err != nil || !strings.HasPrefix(string(out), "module apujoin") {
		t.Fatalf("cannot locate module root from %v: %v", mustGetwd(t), err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	chdirModuleRoot(t)
	var stdout, stderr strings.Builder
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("apulint ./... = exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

func TestRunListIgnores(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	chdirModuleRoot(t)
	var stdout, stderr strings.Builder
	if code := run([]string{"-list-ignores", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "suppression pragma(s)") {
		t.Errorf("missing trailer:\n%s", out)
	}
	// Every line lists a justified reason; a bare pragma would both be
	// marked here and fail TestRunCleanTree.
	if strings.Contains(out, "BARE") {
		t.Errorf("bare suppression in tree:\n%s", out)
	}
	// The pragmas the tree still justifies are enumerable (its one wallclock
	// pragma went with the catalog's registration timestamp).
	if !strings.Contains(out, "slabmake") || !strings.Contains(out, "detmaporder") || !strings.Contains(out, "nakedgo") {
		t.Errorf("expected justified slabmake/detmaporder/nakedgo pragmas in:\n%s", out)
	}
}

func TestRunListAnalyzers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list-analyzers"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"detmaporder", "floatsum", "nakedgo", "wallclock", "envelope"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("analyzer %s missing from listing:\n%s", name, stdout.String())
		}
	}
}

func TestRunFindingsFailWithExitOne(t *testing.T) {
	if testing.Short() {
		t.Skip("type-check is not short")
	}
	chdirModuleRoot(t)
	// A throwaway module with a seeded violation: apulint must print the
	// finding and exit 1. The fixture import path is outside apujoin, so
	// path-scoped analyzers would skip it — nakedgo's allowlist is what
	// binds (any non-allowed path is flagged), making it the right seed.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module apujoin\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "internal", "core", "core.go"),
		"package core\n\nfunc spawn(f func()) {\n\tgo f()\n}\n")
	t.Chdir(dir)
	var stdout, stderr strings.Builder
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "bare go statement") {
		t.Errorf("finding not printed:\n%s", stdout.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
