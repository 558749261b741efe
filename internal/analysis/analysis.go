// Package analysis is apujoin's static-analysis suite: a family of
// project-specific analyzers that enforce, at compile time, the contracts
// the runtime invariance tests (TestWorkersInvariance, TestShardInvariance,
// TestClusterInvariance) can only check one seed at a time:
//
//   - detmaporder: no unordered map iteration in result-producing packages
//     (results must be bit-identical for any worker/shard count),
//   - floatsum: no floating-point accumulation inside unordered loops
//     (simulated times sum in fixed partition order),
//   - nakedgo: all parallelism routed through sched.Pool,
//   - wallclock: no wall-clock or global-randomness reads in the
//     simulated-time core,
//   - envelope: every apujoind HTTP response flows through the unified
//     JSON envelope writers,
//   - slabmake: no input-sized make([]int32, n) in the join-executing
//     packages — a run's slabs come from the alloc recycler.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so migrating onto the upstream framework is a
// mechanical rename, but the implementation is standard library only:
// packages are type-checked from source with imports resolved through the
// compiler's export data (go list -export), so the linter needs no module
// downloads and runs offline.
//
// Suppressions are explicit and audited: a diagnostic is silenced only by
// a same- or previous-line pragma
//
//	//apulint:ignore <analyzer>(<reason>)
//
// and the driver itself rejects pragmas with no reason, pragmas naming an
// unknown analyzer, and pragmas that no longer suppress anything, so the
// set of justified exceptions stays enumerable (apulint -list-ignores) and
// cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports diagnostics; it must not retain the Pass.
type Analyzer struct {
	Name string // short lower-case identifier, used in pragmas and output
	Doc  string // one-paragraph contract description
	Run  func(*Pass) error
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetMapOrder, FloatSum, NakedGo, WallClock, Envelope, SlabMake}
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

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Path      string // import path ("apujoin/internal/core")
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding before suppression filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a diagnostic that survived suppression filtering (or a
// pragma-hygiene error synthesized by the driver), resolved to a concrete
// file position.
type Finding struct {
	Pos      token.Position
	Analyzer string // reporting analyzer, or "pragma" for hygiene errors
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}
