package lint

// DurableAck machine-checks the ack-after-durable protocol from the
// crash-safety PR: a client must never receive a success it could lose.
// Two orderings encode it:
//
//  1. A success release in a function annotated //moloc:durable — a
//     2xx status write on the HTTP side, or a call that can reach an
//     //moloc:ack-annotated primitive (the engine's transitive SendsAck
//     fact, anchored at (*wire.Writer).WriteAck) on the stream side —
//     must be preceded by a call that can reach a WAL append (the
//     AppendsWAL fact) and by a call that can reach a durability wait
//     (the WaitsDurable fact: (*GroupCommitter).WaitDurable). Both
//     facts are transitive, so an ingest wrapper three calls above the
//     WAL counts as the guard. The wait matters because AppendNoSync,
//     the log's only append, leaves its record in the page cache until
//     the group committer's fsync covers it.
//  2. In packages under internal/wal and internal/checkpoint, a Rename
//     call (the atomic publish of a data file) must be preceded by a
//     Sync call in the same function — rename-before-fsync can publish
//     a file whose contents are still in the page cache.
//
// "Preceded" is the lexical approximation documented in flow.go: the
// guard call appears earlier in the same function body, not inside a
// function literal. A 2xx is recognized as any call argument that is an
// integer constant in [200, 299] — which catches both
// w.WriteHeader(http.StatusAccepted) and the repo's
// writeJSON(w, http.StatusAccepted, body) helper.

import (
	"go/ast"
	"go/constant"
)

// DurableAck reports success acks and renames that outrun durability.
var DurableAck = &Analyzer{
	Name: "durableack",
	Doc:  "2xx and stream acks in //moloc:durable handlers must follow a WAL append and a durability wait; Rename must follow Sync",
	Run:  runDurableAck,
}

func runDurableAck(pass *Pass) {
	syncBeforeRename := pkgHasSegments(pass.Path, "internal/wal") ||
		pkgHasSegments(pass.Path, "internal/checkpoint")
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasDirective(fd.Doc, "//moloc:durable") {
				checkDurableHandler(pass, fd)
			}
			if syncBeforeRename {
				checkSyncBeforeRename(pass, fd)
			}
		}
	}
}

// checkDurableHandler demands every success release in an annotated
// handler — a 2xx status write on the HTTP side, a SendsAck-reaching
// call on the stream side — be preceded by a call that can reach a WAL
// append and by one that can reach a durability wait.
func checkDurableHandler(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isAck := carries2xx(pass, call)
		kind := "writes a 2xx status"
		if !isAck {
			if fn := funcObj(pass.Info, call); fn != nil {
				if facts := pass.Index.FuncFacts(fn); facts != nil && facts.SendsAck {
					isAck = true
					kind = "releases a stream ack"
				}
			}
		}
		if !isAck {
			return true
		}
		appended, waited := false, false
		for _, prev := range precedingCalls(fd.Body, call.Pos()) {
			if fn := funcObj(pass.Info, prev); fn != nil {
				if facts := pass.Index.FuncFacts(fn); facts != nil {
					appended = appended || facts.AppendsWAL
					waited = waited || facts.WaitsDurable
				}
			}
		}
		switch {
		case !appended:
			pass.Reportf(call.Pos(),
				kind+" in a //moloc:durable handler with no preceding WAL append")
		case !waited:
			pass.Reportf(call.Pos(),
				kind+" in a //moloc:durable handler with no preceding durability wait (WaitDurable)")
		}
		return true
	})
}

// carries2xx reports whether any argument of call is an integer
// constant in [200, 299].
func carries2xx(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			continue
		}
		if code, exact := constant.Int64Val(tv.Value); exact && code >= 200 && code <= 299 {
			return true
		}
	}
	return false
}

// checkSyncBeforeRename demands every Rename call in the durability
// packages be preceded by a Sync in the same function.
func checkSyncBeforeRename(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(pass.Info, call)
		if fn == nil || fn.Name() != "Rename" {
			return true
		}
		for _, prev := range precedingCalls(fd.Body, call.Pos()) {
			if pfn := funcObj(pass.Info, prev); pfn != nil && pfn.Name() == "Sync" {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"Rename publishes a data file with no preceding Sync in this function (write → fsync → rename)")
		return true
	})
}
