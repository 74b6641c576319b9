package lint

// The cross-function engine. PR 1–4's analyzers were strictly
// per-function: each looked at one body and reported. The invariants
// grown since — ack-after-durable ingest, RCU snapshot cells, reused
// zero-alloc scratch — are properties of call *chains*, not bodies, so
// this file builds the shared substrate they query: one Index over
// every loaded package holding per-function summaries (which calls can
// reach a WAL append, which functions block on a stop signal or retire
// a WaitGroup, which return views into reused scratch) and per-field
// access summaries (atomic vs. plain touches, module-wide).
//
// The Index is built once per RunAll and handed to every Pass; facts
// flow strictly along the import DAG (a package's findings depend only
// on itself and its dependencies), so every finding is attributed to
// one package.

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
	// (*Log).Append or (*Log).AppendNoSync in a package under
	// internal/wal — directly or through any chain of module-internal
	// calls. durableack uses it to accept enqueue wrappers as the append
	// half of the durability guard.
	AppendsWAL bool

	// WaitsDurable reports that the function may reach a durability
	// wait — (*GroupCommitter).WaitDurable, or the syncing (*Log).Append,
	// in a package under internal/wal — directly or transitively.
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

// fieldUse is one syntactic access to a tracked field or variable.
type fieldUse struct {
	Pos    token.Position
	Pkg    string // import path of the using package
	Atomic bool   // address passed to a sync/atomic function
	Write  bool   // plain store (assignment or ++/--)
}

// FieldFacts is the module-wide access summary of one struct field or
// package-level variable that is touched through sync/atomic somewhere.
type FieldFacts struct {
	Obj  types.Object
	Uses []fieldUse
}

// Index is the module-wide cross-function fact base.
type Index struct {
	funcs  map[*types.Func]*FuncFacts
	fields map[types.Object]*FieldFacts
	// reuseFields are the struct fields annotated //moloc:reuse: scratch
	// buffers whose backing array is overwritten on the next call.
	reuseFields map[types.Object]bool
	// deps maps a package path to the set of module package paths it
	// can see: itself plus its transitive imports. Analyzers restrict
	// cross-package queries to this set so findings flow only along the
	// import DAG.
	deps map[string]map[string]bool
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

// visible reports whether the package at path `from` can see facts
// originating in package `in` (same package or a transitive import).
func (ix *Index) visible(from, in string) bool {
	return ix.deps[from][in]
}

// BuildIndex runs the shared summary pass over every package, then
// propagates the transitive facts (AppendsWAL, WaitsDurable, SendsAck,
// Blocking, RetiresWG) over the static call graph to a fixed point.
func BuildIndex(pkgs []*Package) *Index {
	ix := &Index{
		funcs:       make(map[*types.Func]*FuncFacts),
		fields:      make(map[types.Object]*FieldFacts),
		reuseFields: make(map[types.Object]bool),
		deps:        make(map[string]map[string]bool),
	}
	for _, pkg := range pkgs {
		ix.deps[pkg.Path] = reachableImports(pkg.Types)
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

// reachableImports returns the import paths visible from tpkg: itself
// and everything transitively imported.
func reachableImports(tpkg *types.Package) map[string]bool {
	seen := make(map[string]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(tpkg)
	return seen
}

// summarizeFile extracts the direct (non-transitive) facts of one file:
// per-function call lists and flags, and field access records.
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
	ix.recordFieldUses(pkg, f)
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

// isWALAppend reports whether fn is a write-ahead log append method —
// Append, or the group-commit split's AppendNoSync — in any package
// under internal/wal, so analyzer fixtures can model it. AppendNoSync
// counts as an append but not as durable: that is isDurabilityWait's
// half of the guard.
func isWALAppend(fn *types.Func) bool {
	return (fn.Name() == "Append" || fn.Name() == "AppendNoSync") && isWALMethod(fn)
}

// isDurabilityWait reports whether fn makes earlier WAL appends durable
// before returning: the group committer's WaitDurable, or the syncing
// Append, which fsyncs its own record per the log's policy.
func isDurabilityWait(fn *types.Func) bool {
	return (fn.Name() == "WaitDurable" || fn.Name() == "Append") && isWALMethod(fn)
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

// recordFieldUses files every access to a struct field or package-level
// variable that is *somewhere* handed to sync/atomic: both the atomic
// touches (&x passed to atomic.AddInt64 and friends) and the plain
// reads/writes atomicmix will cross-reference against them.
func (ix *Index) recordFieldUses(pkg *Package, f *ast.File) {
	// Atomic touches first: &obj as an argument of a sync/atomic call.
	atomicArgs := make(map[ast.Expr]bool) // the &x UnaryExpr nodes
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
				atomicArgs[u] = true
			}
		}
		return true
	})

	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		var id *ast.Ident
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id = n.Sel
		case *ast.Ident:
			// Only package-level variables are tracked by bare name, and
			// only when the Ident is not the Sel of a selector (already
			// handled above).
			if p, ok := nthParent(stack, 2).(*ast.SelectorExpr); ok && p.Sel == n {
				return true
			}
			id = n
		default:
			return true
		}
		obj := pkg.Info.Uses[id]
		if !trackableVar(obj) {
			return true
		}
		use := fieldUse{Pos: pkg.Fset.Position(id.Pos()), Pkg: pkg.Path}
		// The use expression is the node on top of the stack; its parent
		// decides the access shape.
		switch p := nthParent(stack, 2).(type) {
		case *ast.UnaryExpr:
			if p.Op == token.AND && atomicArgs[p] {
				use.Atomic = true
			}
			// Other address-taking aliases the cell; atomicmix treats it
			// as a plain (unknowable) use.
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if ast.Unparen(lhs) == nthParent(stack, 1) {
					use.Write = true
				}
			}
		case *ast.IncDecStmt:
			use.Write = true
		}
		ff := ix.fields[obj]
		if ff == nil {
			ff = &FieldFacts{Obj: obj}
			ix.fields[obj] = ff
		}
		ff.Uses = append(ff.Uses, use)
		return true
	})
}

// trackableVar reports whether obj is a struct field or a package-level
// variable of a non-atomic type — the objects atomicmix cross-checks.
// Fields of sync/atomic named types enforce atomicity through their
// method set already (and snapshotguard/copylocks cover their misuse).
func trackableVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if !v.IsField() && (v.Parent() == nil || v.Parent().Parent() != types.Universe) {
		return false // locals and parameters are single-goroutine state
	}
	if named, ok := v.Type().(*types.Named); ok {
		if p := named.Obj().Pkg(); p != nil && p.Path() == "sync/atomic" {
			return false
		}
	}
	return true
}
