package lint

import (
	"go/ast"
	"go/types"
)

// Hotpath flags allocation- and hashing-prone constructs inside
// functions annotated with a
//
//	//moloc:hotpath
//
// doc-comment directive. The annotation marks the per-fix serving
// path — candidate selection, compiled-index walks, posterior fusion —
// where PR 3's zero-allocation contract is load-bearing and pinned by
// testing.AllocsPerRun tests. Two constructs defeat it silently:
//
//   - map indexing: every access hashes the key; the compiled views
//     exist precisely so hot paths walk slice-backed adjacency instead
//     (motiondb.Compiled vs DB.Lookup).
//   - append onto a buffer that is neither resliced from an existing
//     backing array (buf[:0], buf[:n]) nor made with explicit capacity
//     (make(T, n, c)): such appends grow a fresh allocation per call
//     at steady state.
//
// An append target is accepted when some assignment in the same
// function derives it from a reslice, from such an append chain, or
// from a capacity-explicit make — the reuse idiom the serving buffers
// follow. Findings are suppressed the usual way with //lint:ignore
// hotpath <reason>.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flags map indexing and non-preallocated appends in //moloc:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "//moloc:hotpath") {
				continue
			}
			checkHotpathBody(pass, fd.Body)
		}
	}
}

func checkHotpathBody(pass *Pass, body *ast.BlockStmt) {
	reused := reusedBuffers(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"map indexing on a hot path hashes per access; walk a compiled slice index instead")
				}
			}
		case *ast.CallExpr:
			if isBuiltinAppend(pass.Info, n) && len(n.Args) > 0 &&
				!isReusedBufferExpr(n.Args[0], reused) {
				pass.Reportf(n.Pos(),
					"append onto a non-preallocated buffer allocates at steady state; append into buf[:0] or make with explicit capacity")
			}
		}
		return true
	})
}

// reusedBuffers collects the names assigned (anywhere in the function)
// from a reslice, a blessed append chain, or a capacity-explicit make —
// the buffer-reuse idiom.
func reusedBuffers(body *ast.BlockStmt) map[string]bool {
	reused := make(map[string]bool)
	// Two passes so an append chain through an intermediate name
	// (a := buf[:0]; b := append(a, ...)) resolves regardless of
	// declaration order.
	for i := 0; i < 2; i++ {
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for j, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isReuseSource(assign.Rhs[j], reused) {
					reused[id.Name] = true
				}
			}
			return true
		})
	}
	return reused
}

// isReuseSource reports whether an expression yields a slice that
// reuses existing backing: a reslice, an append chain rooted in one,
// or a make with explicit capacity.
func isReuseSource(e ast.Expr, reused map[string]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "append":
				return len(e.Args) > 0 && isReusedBufferExpr(e.Args[0], reused)
			case "make":
				return len(e.Args) == 3
			}
		}
	}
	return false
}

// isReusedBufferExpr reports whether an append target is acceptable: a
// reslice expression, or a name established as a reused buffer.
func isReusedBufferExpr(e ast.Expr, reused map[string]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		return reused[e.Name]
	}
	return false
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "append"
	}
	return false
}
