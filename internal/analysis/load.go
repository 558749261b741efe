package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// decodes the stream. -export makes the go tool compile (or reuse from the
// build cache) every package and report its export-data file, which is how
// the type checker resolves imports without any network or module
// downloads.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function over the export files
// go list reported.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// typeCheck parses and type-checks one listed package against the export
// index. Only non-test files are analyzed: GoFiles is exactly the compiled
// production source, which is where the determinism contracts bind (tests
// legitimately spawn goroutines, read wall clocks, and iterate maps).
func typeCheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// Load type-checks every package of the module rooted at dir matched by
// patterns (plus nothing else: dependencies contribute export data only).
// The returned slice is sorted by import path so analysis output is
// deterministic.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var module []listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			module = append(module, p)
		}
	}
	if len(module) == 0 {
		return nil, fmt.Errorf("no module packages matched %v under %s", patterns, dir)
	}
	sort.Slice(module, func(i, j int) bool { return module[i].ImportPath < module[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	pkgs := make([]*Package, 0, len(module))
	for _, lp := range module {
		pkg, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
