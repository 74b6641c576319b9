package lint

// AtomicMix enforces the single-discipline rule for shared cells: every
// cell touched atomically is a typed atomic (atomic.Int64,
// atomic.Uint64, atomic.Pointer[T], …), so the type system routes every
// access through its methods. One plain load racing one
// atomic.AddInt64 is already undefined, and the function API
// (atomic.AddInt64(&x, 1) and friends) is the only way to write such a
// mix: it is the one shape that hands sync/atomic a plain cell whose
// other uses the compiler cannot see. So the rule is per call — any
// sync/atomic function call in non-test code is reported — which is
// strictly stronger than cross-checking each cell's uses, and needs no
// module-wide index. Copies of a typed atomic, the remaining way around
// its methods, are go vet -copylocks' job (make lint runs it).

import (
	"go/ast"
	"go/types"
)

// AtomicMix reports calls to sync/atomic's function API.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "shared cells are typed atomics: non-test code must not call sync/atomic functions such as atomic.AddInt64",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObj(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true // not sync/atomic, or a typed atomic's method
			}
			pass.Reportf(call.Pos(),
				"atomic.%s on a plain cell: declare the cell as a typed atomic and use its methods", fn.Name())
			return true
		})
	}
}
