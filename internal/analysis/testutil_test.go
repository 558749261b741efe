package analysis

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the suite's analysistest: fixtures under testdata/src/<dir>
// are loaded with a pretend import path (so path-scoped analyzers treat
// them as the package they stand in for), run through the full driver —
// including pragma suppression and hygiene — and their findings are
// compared against trailing expectations of the form
//
//	code() // want "regexp" "another regexp"
//
// exactly one expectation per expected finding on that line. The
// expectation syntax and semantics mirror golang.org/x/tools'
// analysistest so fixtures survive a migration onto the upstream
// framework unchanged.

var (
	moduleRootOnce sync.Once
	moduleRootDir  string
	moduleRootErr  error
)

// ModuleRoot locates the module directory (where go.mod lives), which is
// where fixture import resolution and whole-tree runs anchor.
func ModuleRoot() (string, error) {
	moduleRootOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			moduleRootErr = fmt.Errorf("go env GOMOD: %v", err)
			return
		}
		gomod := strings.TrimSpace(string(out))
		if gomod == "" || gomod == os.DevNull {
			moduleRootErr = fmt.Errorf("not inside a module")
			return
		}
		moduleRootDir = filepath.Dir(gomod)
	})
	return moduleRootDir, moduleRootErr
}

// expectation is one parsed `// want "re"` clause.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// parseExpectations scans fixture source files for want clauses.
func parseExpectations(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			patterns, err := splitQuoted(m[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", path, i+1, p, err)
				}
				out = append(out, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return out, nil
}

// splitQuoted parses a sequence of double-quoted or backquoted strings.
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted pattern in %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted pattern in %q", s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted, got %q", s)
		}
	}
	return out, nil
}

// CheckFixture loads testdata/src/<fixture> (relative to the analysis
// package directory) at the pretend import path asPath, runs the given
// analyzers through the full driver, and returns a list of mismatches
// between findings and want expectations (empty means the fixture
// behaves exactly as annotated).
func CheckFixture(fixture, asPath string, analyzers ...*Analyzer) ([]string, error) {
	root, err := ModuleRoot()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", fixture)
	pkg, err := LoadFixture(root, dir, asPath)
	if err != nil {
		return nil, err
	}
	findings, err := analyzePackage(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	expects, err := parseExpectations(dir)
	if err != nil {
		return nil, err
	}

	var problems []string
	for _, f := range findings {
		matched := false
		for _, e := range expects {
			if e.met || e.file != f.Pos.Filename || e.line != f.Pos.Line {
				continue
			}
			if e.re.MatchString(f.Message) {
				e.met = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding: %s", f))
		}
	}
	for _, e := range expects {
		if !e.met {
			problems = append(problems, fmt.Sprintf("%s:%d: no finding matched want %q", e.file, e.line, e.re))
		}
	}
	return problems, nil
}

// LoadFixture type-checks a single directory of Go files that is not part
// of the module build (an analysistest-style fixture under testdata),
// pretending it lives at import path asPath so path-scoped analyzers
// treat it as the package under test. Imports are resolved the same way
// Load resolves them: `go list -export` run from moduleDir supplies the
// export data for whatever the fixture imports.
func LoadFixture(moduleDir, fixtureDir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	// First pass with a throwaway FileSet: collect the import set so the
	// export data can be resolved before the real type-checking parse.
	scanFset := token.NewFileSet()
	imported := make(map[string]bool)
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixtureDir, e.Name())
		f, err := parser.ParseFile(scanFset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		names = append(names, e.Name())
		for _, imp := range f.Imports {
			imported[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in fixture %s", fixtureDir)
	}
	exports := make(map[string]string)
	if len(imported) > 0 {
		patterns := make([]string, 0, len(imported))
		for p := range imported {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		listed, err := goList(moduleDir, patterns...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	pkg, err := typeCheck(fset, imp, listedPackage{
		ImportPath: asPath,
		Dir:        fixtureDir,
		GoFiles:    names,
	})
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// ByName resolves an analyzer name; it reports false for unknown names
// (the driver turns unknown pragma targets into errors with this).
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}
