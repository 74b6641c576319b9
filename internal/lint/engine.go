package lint

// The cross-function engine. Some invariants are properties of call
// chains, not single bodies: ack-after-durable ingest, reused
// zero-alloc scratch, joinable goroutines. This file builds the shared
// substrate their analyzers query: one Index over every loaded package
// holding per-function summaries (which calls can reach a WAL append
// or a durability wait, which block on a stop signal or retire a
// WaitGroup, which return views into reused scratch) and the
// //moloc:reuse field set. It also parses the //moloc: directives for
// every analyzer (hasDirective, fieldDirective). The Index is built
// once per RunAll and handed to every Pass.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncFacts is the summary of one declared function or method.
type FuncFacts struct {
	// Decl is the syntax; Pkg the package it was declared in.
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls are the statically resolved callees (declared functions and
	// methods, including interface methods) invoked anywhere in the
	// body, function literals included.
	Calls []*types.Func

	// AppendsWAL reports that the function may reach a WAL append —
	// (*Log).AppendNoSync in a package under internal/wal — directly or
	// through any chain of module-internal calls. durableack uses it to
	// accept enqueue wrappers as the append half of the durability guard.
	AppendsWAL bool

	// WaitsDurable reports that the function may reach a durability
	// wait — (*GroupCommitter).WaitDurable in a package under
	// internal/wal — directly or transitively.
	// durableack demands one before every success release, because an
	// AppendNoSync record is only in the page cache until the covering
	// fsync completes.
	WaitsDurable bool

	// SendsAck reports that the function may reach an ack-release
	// primitive — a function annotated //moloc:ack, like the stream
	// plane's (*wire.Writer).WriteAck — directly or transitively.
	// durableack demands such calls in //moloc:durable functions be
	// preceded by an AppendsWAL call, the binary-protocol twin of the
	// 2xx-after-append rule.
	SendsAck bool

	// Blocking reports that the body (or a transitive callee) receives
	// from a channel: a <-ch expression, a select receive case, or
	// ranging over a channel. A goroutine running such a function has
	// its lifetime tied to a signal someone can fire; waitleak accepts
	// it.
	Blocking bool

	// RetiresWG reports that the body (or a transitive callee) calls
	// (*sync.WaitGroup).Done, so a goroutine running it is joinable.
	RetiresWG bool

	// ReuseAnnotated reports the //moloc:reuse doc directive: the
	// function's contract is that its result aliases reused scratch and
	// must not be retained past the next call. bufalias checks callers
	// of annotated functions and bodies returning annotated fields.
	ReuseAnnotated bool
}

// Index is the module-wide cross-function fact base.
type Index struct {
	funcs map[*types.Func]*FuncFacts
	// reuseFields are the struct fields annotated //moloc:reuse: scratch
	// buffers whose backing array is overwritten on the next call.
	reuseFields map[types.Object]bool
}

// ReuseField reports whether obj is a //moloc:reuse-annotated field.
func (ix *Index) ReuseField(obj types.Object) bool {
	return ix != nil && ix.reuseFields[obj]
}

// FuncFacts returns the summary of fn, or nil for functions outside the
// indexed packages (stdlib, interface methods without bodies).
func (ix *Index) FuncFacts(fn *types.Func) *FuncFacts {
	if ix == nil || fn == nil {
		return nil
	}
	return ix.funcs[fn]
}

// BuildIndex runs the shared summary pass over every package, then
// propagates the transitive facts (AppendsWAL, WaitsDurable, SendsAck,
// Blocking, RetiresWG) over the static call graph to a fixed point.
func BuildIndex(pkgs []*Package) *Index {
	ix := &Index{
		funcs:       make(map[*types.Func]*FuncFacts),
		reuseFields: make(map[types.Object]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue // test code makes no promises the engine should export
			}
			ix.summarizeFile(pkg, f)
		}
	}
	ix.propagate()
	return ix
}

// summarizeFile extracts the direct (non-transitive) facts of one file:
// per-function call lists and flags, and the //moloc:reuse fields.
func (ix *Index) summarizeFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		facts := &FuncFacts{
			Decl: fd, Pkg: pkg,
			ReuseAnnotated: hasDirective(fd.Doc, "//moloc:reuse"),
			SendsAck:       hasDirective(fd.Doc, "//moloc:ack"),
		}
		facts.AppendsWAL = isWALAppend(obj)
		facts.WaitsDurable = isDurabilityWait(obj)
		if fd.Body != nil {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if callee := funcObj(pkg.Info, n); callee != nil {
						facts.Calls = append(facts.Calls, callee)
						if isWALAppend(callee) {
							facts.AppendsWAL = true
						}
						if isDurabilityWait(callee) {
							facts.WaitsDurable = true
						}
						if isWaitGroupMethod(callee, "Done") {
							facts.RetiresWG = true
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						facts.Blocking = true
					}
				case *ast.RangeStmt:
					if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							facts.Blocking = true
						}
					}
				}
				return true
			})
		}
		ix.funcs[obj] = facts
	}
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if !fieldDirective(field, "//moloc:reuse") {
				continue
			}
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ix.reuseFields[obj] = true
				}
			}
		}
		return true
	})
}

// fieldDirective reports whether a struct field's doc or line comment
// carries the given //moloc:* directive.
func fieldDirective(field *ast.Field, directive string) bool {
	return hasDirective(field.Doc, directive) || hasDirective(field.Comment, directive)
}

// hasDirective reports whether a comment group carries the given
// //moloc:* directive on a line of its own.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// isWALAppend reports whether fn is the write-ahead log's append
// method, AppendNoSync, in any package under internal/wal, so analyzer
// fixtures can model it. The append is not durable by itself: that is
// isDurabilityWait's half of the guard.
func isWALAppend(fn *types.Func) bool {
	return fn.Name() == "AppendNoSync" && isWALMethod(fn)
}

// isDurabilityWait reports whether fn makes earlier WAL appends durable
// before returning: the group committer's WaitDurable.
func isDurabilityWait(fn *types.Func) bool {
	return fn.Name() == "WaitDurable" && isWALMethod(fn)
}

// isWALMethod reports whether fn is a method declared in a package
// under internal/wal.
func isWALMethod(fn *types.Func) bool {
	return fn.Pkg() != nil && pkgHasSegments(fn.Pkg().Path(), "internal/wal") &&
		fn.Type().(*types.Signature).Recv() != nil
}

// isWaitGroupMethod reports whether fn is the named method of
// sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// propagate closes AppendsWAL, WaitsDurable, SendsAck, Blocking, and
// RetiresWG over the static call graph: a function inherits each flag
// from any callee. Iterates to a fixed point (the graph is small and
// cycles are rare).
func (ix *Index) propagate() {
	for changed := true; changed; {
		changed = false
		for _, facts := range ix.funcs {
			for _, callee := range facts.Calls {
				cf := ix.funcs[callee]
				if cf == nil {
					continue
				}
				if cf.AppendsWAL && !facts.AppendsWAL {
					facts.AppendsWAL = true
					changed = true
				}
				if cf.WaitsDurable && !facts.WaitsDurable {
					facts.WaitsDurable = true
					changed = true
				}
				if cf.SendsAck && !facts.SendsAck {
					facts.SendsAck = true
					changed = true
				}
				if cf.Blocking && !facts.Blocking {
					facts.Blocking = true
					changed = true
				}
				if cf.RetiresWG && !facts.RetiresWG {
					facts.RetiresWG = true
					changed = true
				}
			}
		}
	}
}
