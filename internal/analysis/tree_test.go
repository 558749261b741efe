package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

// loadModule type-checks the whole module once for every whole-tree test
// of the run; each test that calls it is skipped under -short.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	moduleOnce.Do(func() {
		root, err := ModuleRoot()
		if err != nil {
			moduleErr = err
			return
		}
		modulePkgs, moduleErr = Load(root, "./...")
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// TestTreeIsClean runs the full analyzer suite over the real module —
// the same sweep `apulint ./...` and the CI lint job perform — and
// requires zero findings. This is the contract the suite exists for:
// a violation anywhere in production code fails `go test ./...`, not
// just the lint job.
func TestTreeIsClean(t *testing.T) {
	pkgs := loadModule(t)
	findings, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}

	// Every in-tree suppression must carry a reason (bare pragmas are
	// findings above, but assert the audit surface directly too) and
	// name a real analyzer.
	igs := ListIgnores(pkgs)
	for _, ig := range igs {
		if strings.TrimSpace(ig.Reason) == "" {
			t.Errorf("%s:%d: bare suppression pragma", ig.Pos.Filename, ig.Pos.Line)
		}
		if _, ok := ByName(ig.Analyzer); !ok {
			t.Errorf("%s:%d: pragma names unknown analyzer %q", ig.Pos.Filename, ig.Pos.Line, ig.Analyzer)
		}
	}
	t.Logf("tree clean; %d justified suppression(s)", len(igs))
}

// TestLoadModulePackages pins the loader's view of the module: the
// packages the determinism contracts bind to must be present and
// type-checked.
func TestLoadModulePackages(t *testing.T) {
	pkgs := loadModule(t)
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p.Path] = true
		if p.Pkg == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: incomplete package", p.Path)
		}
	}
	for _, path := range resultProducing {
		if !seen[path] {
			t.Errorf("result-producing package %s not loaded", path)
		}
	}
	for _, path := range []string{"apujoin/internal/sched", "apujoin/internal/httpapi", "apujoin/cmd/apulint"} {
		if !seen[path] {
			t.Errorf("package %s not loaded", path)
		}
	}
}

// unreadExemptPackages are read by tests by design: oracle is the tests'
// reference join, and the root package is the public API, whose surface
// TestOptionClockContract pins.
var unreadExemptPackages = map[string]bool{
	"apujoin":                 true,
	"apujoin/internal/oracle": true,
}

// unreadAllowed lists the exported functions and methods that may have no
// reader outside tests, keyed as exportKey prints them, each with the
// reason it stays in production code.
var unreadAllowed = map[string]string{
	"apujoin/internal/rel.JoinMaterialize": "the reference StreamMaterialize is held to in the tests of five " +
		"packages; inside oracle it would share rel.KeyCounts with the code path it checks",
}

// TestEveryExportHasAProductionReader fails on an exported function or
// method, declared in a non-test file, that no non-test file of the module
// uses: code only tests call belongs in a _test.go file beside them, or
// nowhere. A method that makes its type satisfy an interface is read
// through the interface, so it passes; so do the exempt packages and the
// allow-list.
func TestEveryExportHasAProductionReader(t *testing.T) {
	pkgs := loadModule(t)
	// Each package is type-checked from source against its imports'
	// export data, so one function is a different object in every package
	// that sees it: match by exportKey, not by identity.
	used := make(map[string]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[exportKey(fn)] = true
			}
		}
	}
	ifaces := interfacesIn(pkgs)
	var declared int
	for _, p := range pkgs {
		if unreadExemptPackages[p.Path] {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declared++
				fn := p.Info.Defs[fd.Name].(*types.Func)
				key := exportKey(fn)
				if _, allowed := unreadAllowed[key]; allowed || used[key] || satisfiesInterface(fn, ifaces) {
					continue
				}
				t.Errorf("%s: %s has no reader outside tests: move it beside its tests, delete it, or allow-list it with a reason",
					p.Fset.Position(fd.Pos()), key)
			}
		}
	}
	for key := range unreadAllowed {
		if used[key] {
			t.Errorf("%s is allow-listed as unread but has a production reader: drop the entry", key)
		}
	}
	t.Logf("%d exported functions and methods outside the exempt packages", declared)
}

// exportKey names a function or method by package path, receiver type and
// name, the identity it keeps across source and export data.
func exportKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Name()
	if n, ok := recvType(fn).(*types.Named); ok {
		key = n.Obj().Name() + "." + key
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// recvType is a method's receiver type without its pointer, nil for a
// function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// interfacesIn collects every interface the module can satisfy: the
// universe's error, each named interface of a module package or anything
// it imports, and each interface type an expression of the module has.
func interfacesIn(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether method fn is part of an interface in
// ifaces that its receiver type implements. Signatures are compared as
// strings because the interface and the method may come from different
// type-checks of one package.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	t := recvType(fn)
	if t == nil {
		return false
	}
	methods := types.NewMethodSet(types.NewPointer(t))
	has := func(m *types.Func) bool {
		for i := range methods.Len() {
			got := methods.At(i).Obj()
			if got.Name() == m.Name() && (m.Exported() || got.Pkg().Path() == m.Pkg().Path()) &&
				types.TypeString(got.Type(), nil) == types.TypeString(m.Type(), nil) {
				return true
			}
		}
		return false
	}
	for _, it := range ifaces {
		named, all := false, true
		for i := range it.NumMethods() {
			m := it.Method(i)
			named = named || m.Name() == fn.Name()
			all = all && has(m)
		}
		if named && all {
			return true
		}
	}
	return false
}
