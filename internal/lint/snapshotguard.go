package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotGuard restricts struct fields annotated with a
//
//	//moloc:snapshot
//
// comment to access through their atomic methods. The annotation marks
// the RCU-style published views of the online-training path: the server
// stores each freshly recompiled *motiondb.Compiled into an
// atomic.Pointer, and trackers acquire it with one Load per tick. The
// whole scheme is sound only if every read and write goes through
// Load/Store/Swap/CompareAndSwap — a direct dereference or a value copy
// of the atomic.Pointer bypasses the memory-ordering guarantees and can
// observe a torn swap.
//
// An annotated field must itself be an atomic.Pointer[T] (or a pointer
// to one, for consumers handed the publisher's cell); anything else is
// reported at the declaration. For uses, the analyzer accepts:
//
//   - method calls: f.Load(), f.Store(v), f.Swap(v), f.CompareAndSwap(o, n)
//   - taking the address (&s.snap) to wire a consumer to the
//     publisher's cell
//   - for pointer-typed fields only: nil comparisons (the unwired
//     guard) and assignment as a whole (rewiring which cell is
//     followed, not touching its contents)
//
// Everything else — dereferences, value copies, passing the field by
// value, method values — is flagged. Findings are suppressed the usual
// way with //lint:ignore snapshotguard <reason>.
var SnapshotGuard = &Analyzer{
	Name: "snapshotguard",
	Doc:  "restricts //moloc:snapshot fields to atomic.Pointer Load/Store access",
	Run:  runSnapshotGuard,
}

func runSnapshotGuard(pass *Pass) {
	fields := snapshotFields(pass)
	if len(fields) == 0 {
		return
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		checkSnapshotUses(pass, f, fields)
	}
}

// snapshotFields collects the //moloc:snapshot-annotated struct fields
// declared in the pass's package, reporting any whose type is not an
// atomic.Pointer (those are excluded from use checking — the annotation
// itself is the bug).
func snapshotFields(pass *Pass) map[types.Object]bool {
	fields := make(map[types.Object]bool)
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldDirective(field, "//moloc:snapshot") {
					continue
				}
				for _, name := range field.Names {
					obj := pass.Info.Defs[name]
					if obj == nil {
						continue
					}
					if !isAtomicPointer(obj.Type()) {
						pass.Reportf(name.Pos(),
							"field %s is annotated //moloc:snapshot but is not an atomic.Pointer", name.Name)
						continue
					}
					fields[obj] = true
				}
			}
			return true
		})
	}
	return fields
}

// isAtomicPointer reports whether t is sync/atomic.Pointer[T] or a
// pointer to one.
func isAtomicPointer(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Pointer" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkSnapshotUses walks one file with a parent stack and reports
// every use of an annotated field that is not an allowed access shape.
func checkSnapshotUses(pass *Pass, f *ast.File, fields map[types.Object]bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		if obj == nil || !fields[obj] {
			return true
		}
		if !snapshotUseAllowed(sel, stack, obj) {
			pass.Reportf(sel.Pos(),
				"snapshot field %s must be accessed through its atomic Load/Store methods (//moloc:snapshot)",
				sel.Sel.Name)
		}
		return true
	})
}

// atomicAccessors are the sync/atomic.Pointer methods that constitute a
// legitimate snapshot access.
var atomicAccessors = map[string]bool{
	"Load": true, "Store": true, "Swap": true, "CompareAndSwap": true,
}

// snapshotUseAllowed reports whether the selector's enclosing context
// is one of the accepted access shapes. The stack ends with sel itself;
// stack[len-2] is its parent.
func snapshotUseAllowed(sel *ast.SelectorExpr, stack []ast.Node, obj types.Object) bool {
	parent := nthParent(stack, 2)
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// s.snap.Load() — the method selector must itself be called.
		if p.X != ast.Expr(sel) || !atomicAccessors[p.Sel.Name] {
			return false
		}
		call, ok := nthParent(stack, 3).(*ast.CallExpr)
		return ok && call.Fun == ast.Expr(p)
	case *ast.UnaryExpr:
		// &s.snap — wiring a consumer to the publisher's cell.
		return p.Op == token.AND
	case *ast.BinaryExpr:
		// t.snap == nil — the unwired guard on a pointer-typed field.
		if p.Op != token.EQL && p.Op != token.NEQ {
			return false
		}
		other := p.X
		if other == ast.Expr(sel) {
			other = p.Y
		}
		id, ok := ast.Unparen(other).(*ast.Ident)
		return ok && id.Name == "nil"
	case *ast.AssignStmt:
		// t.snap = cell — rewiring a pointer-typed field as a whole.
		// Assigning over a value-typed atomic.Pointer copies a lock and
		// is never legitimate.
		if _, isPtr := obj.Type().(*types.Pointer); !isPtr {
			return false
		}
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == ast.Expr(sel) {
				return true
			}
		}
	}
	return false
}

// nthParent returns the node n levels up the inspection stack (1 = the
// current node), or nil when the stack is shorter.
func nthParent(stack []ast.Node, n int) ast.Node {
	if len(stack) < n {
		return nil
	}
	return stack[len(stack)-n]
}
