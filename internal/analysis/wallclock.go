package analysis

import (
	"go/ast"
	"go/types"
)

// WallClock keeps the simulated-time core deterministic: inside the
// packages that compute under the simulated clock (core, htab, sched,
// alloc, radix, hash, mem, cost, rel, shard, plan, catalog, device), any
// reference to time.Now/Since/Until or to math/rand's global-state
// convenience functions is flagged. Simulated results must be a pure
// function of inputs and injected seeds — rand.New(rand.NewSource(seed))
// and friends are fine, the process-global generator and the wall clock
// are not. Wall-time reads that are genuinely reporting metadata (never
// entering a simulated quantity) carry an
// //apulint:ignore wallclock(reason) pragma.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "flag wall-clock reads and global math/rand use in the simulated-time core",
	Run:  runWallClock,
}

// wallclockTime is the set of time-package functions that read the wall
// clock.
var wallclockTime = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors are the math/rand names that take explicit
// seeds/sources and therefore stay deterministic. Everything else
// exported from math/rand reads or seeds process-global state.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// v2 additions; harmless to allow for v1 too.
	"NewPCG": true, "NewChaCha8": true,
}

func runWallClock(pass *Pass) error {
	if !inScope(simulatedTime, pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if wallclockTime[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "time.%s in the simulated-time core: results must be a pure function of inputs and seeds — use the simulated clock (Acct), or justify reporting metadata with //apulint:ignore wallclock(reason)", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				// Only package-level functions touch the global
				// generator; type names (rand.Rand, rand.Zipf) and the
				// seeded constructors are deterministic.
				if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && !seededConstructors[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "global math/rand.%s in the simulated-time core: use rand.New(rand.NewSource(seed)) with an injected seed", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
