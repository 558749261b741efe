package analysis

import (
	"go/ast"
	"go/types"
)

// SlabMake keeps a run's memory on the slab recycler: inside the packages
// that execute a join (core, radix, htab, sched), make([]int32, n) with a
// length or capacity that is not a compile-time constant is flagged. Such
// an array scales with the input, is faulted in and zeroed on every run,
// and is garbage the moment the run ends — exactly what alloc.GetWords /
// GetZeroed / PutWords exist to avoid (DESIGN.md, "Memory: recycled
// slabs"). Constant-sized makes (stack histograms, headers of fixed
// width) are not slabs and pass. An array that must stay on make — it is
// returned to the caller, it is tiny, its lifetime is not the run's — says
// so with //apulint:ignore slabmake(reason).
var SlabMake = &Analyzer{
	Name: "slabmake",
	Doc:  "flag input-sized make([]int32, n) in the join-executing packages: take slabs from the alloc recycler",
	Run:  runSlabMake,
}

func runSlabMake(pass *Pass) error {
	if !inScope(slabScope, pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "make" {
				return true
			}
			if !isInt32Slice(pass.TypesInfo.TypeOf(call.Args[0])) {
				return true
			}
			for _, size := range call.Args[1:] {
				if pass.TypesInfo.Types[size].Value == nil {
					pass.Reportf(call.Pos(), "make([]int32, …) sized by the input: take the slab from the recycler (alloc.GetWords / GetZeroed, handed back with PutWords), or justify with //apulint:ignore slabmake(reason)")
					break
				}
			}
			return true
		})
	}
	return nil
}

// isInt32Slice reports whether t is (a named type over) []int32.
func isInt32Slice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int32
}
