// Package lint implements moloclint, a small static-analysis suite that
// enforces the MoLoc repository's numeric and concurrency invariants —
// conventions the Go compiler cannot check but that the reproduction's
// correctness depends on:
//
//   - degnorm: compass-bearing arithmetic must go through the
//     internal/geom helpers (NormalizeDeg, AngleDiff, MirrorBearing).
//     The paper's RLM reassembling step d' = (d + 180°) mod 360° is
//     wrong when written with raw math.Mod, which returns negative
//     values for negative inputs.
//   - randsrc: all pseudo-randomness must flow through internal/stats
//     so that EXPERIMENTS.md stays reproducible run-to-run. Importing
//     math/rand directly or seeding from the wall clock breaks that.
//   - lockguard: structs that follow the `mu sync.Mutex` + guarded
//     fields layout (fields declared after the mutex are protected by
//     it, as in internal/server) must not have methods that touch
//     guarded fields without taking the lock.
//   - errdrop: error return values must not be silently discarded in
//     non-test code.
//   - hotpath: functions annotated //moloc:hotpath (the per-fix serving
//     path) may not index maps or append onto non-preallocated buffers,
//     which would break the pinned zero-allocation contract.
//   - snapshotguard: fields annotated //moloc:snapshot (the RCU-style
//     published motion-index views) may only be accessed through their
//     atomic.Pointer Load/Store methods; direct dereferences and value
//     copies bypass the memory-ordering guarantees of the snapshot
//     swap.
//   - atomicmix: shared cells are typed atomics, so non-test code never
//     calls sync/atomic's function API (atomic.AddInt64 and friends),
//     the only way to mix atomic and plain access to one cell.
//   - bufalias, durableack, waitleak: call-chain invariants over the
//     engine's index (engine.go) — reused scratch is not retained, acks
//     follow AppendNoSync and WaitDurable, goroutines are joinable.
//   - staleignore: a //lint:ignore comment must suppress something.
//
// The suite is built directly on the standard library's go/parser and
// go/types (no golang.org/x/tools dependency): Load type-checks every
// package in the module, and each Analyzer inspects the typed ASTs and
// reports Diagnostics. Findings can be suppressed with a
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the flagged line or on the line immediately above it.
// The cmd/moloclint driver runs the suite over the repository and
// exits non-zero on any unsuppressed finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:ignore comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// Analyzers returns the full moloclint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DegNorm, RandSrc, LockGuard, ErrDrop, Hotpath, SnapshotGuard,
		AtomicMix, BufAlias, DurableAck, WaitLeak, StaleIgnore,
	}
}

// AnalyzerByName returns the analyzer with the given name, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer and
// collects its diagnostics. Suppressed findings (//lint:ignore) are
// dropped at report time.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path (module-relative for fixture
	// packages). Exemptions such as internal/geom match on it.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Index is the module-wide cross-function fact base (engine.go).
	// Analyzers may query any function's summary but only report
	// positions inside this pass's package.
	Index *Index

	diags []Diagnostic
	sup   *suppressions
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	pos      token.Position // of the comment itself
	analyzer string         // name or "all"
	inTest   bool
	used     bool // matched at least one finding this run
}

// suppressions is the per-package //lint:ignore store. It is shared by
// every analyzer run over the package so the stale sweep can see which
// comments earned their keep across the whole suite.
type suppressions struct {
	byFile map[string][]*suppression
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)`)

// buildSuppressions indexes every //lint:ignore comment in the
// package's files by file and line.
func buildSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	sup := &suppressions{byFile: make(map[string][]*suppression)}
	for _, f := range files {
		inTest := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				sup.byFile[pos.Filename] = append(sup.byFile[pos.Filename],
					&suppression{pos: pos, analyzer: m[1], inTest: inTest})
			}
		}
	}
	return sup
}

// match reports whether a finding by analyzer at pos is covered by a
// //lint:ignore comment on the same line or the line directly above,
// marking any covering comment as used.
func (sup *suppressions) match(analyzer string, pos token.Position) bool {
	hit := false
	for _, s := range sup.byFile[pos.Filename] {
		if s.pos.Line != pos.Line && s.pos.Line != pos.Line-1 {
			continue
		}
		if s.analyzer == "all" || s.analyzer == analyzer {
			s.used = true
			hit = true
		}
	}
	return hit
}

// Reportf records a finding at pos unless a //lint:ignore comment
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.sup.match(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether the file containing pos is a _test.go
// file. Test code is exempt from every analyzer: tests deliberately
// construct raw angles, fixed-seed randomness, and single-threaded
// state to probe edge cases.
func (p *Pass) isTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}

// pkgHasSegments reports whether the slash-separated package path
// contains the given consecutive segments (e.g. "internal/geom"
// matches both "internal/geom" and "moloc/internal/geom").
func pkgHasSegments(path, want string) bool {
	segs := strings.Split(path, "/")
	wsegs := strings.Split(want, "/")
	for i := 0; i+len(wsegs) <= len(segs); i++ {
		ok := true
		for j, w := range wsegs {
			if segs[i+j] != w {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// runOne executes one analyzer over one package against a shared index
// and suppression store.
func runOne(a *Analyzer, pkg *Package, ix *Index, sup *suppressions) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Path:     pkg.Path,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Index:    ix,
		sup:      sup,
	}
	a.Run(pass)
	return pass.diags
}

// RunAll executes every given analyzer over every package — building
// the cross-function index once over the whole set — and returns the
// combined, position-sorted findings. When the suite includes
// staleignore, a final sweep reports //lint:ignore comments that
// suppressed nothing.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ix := BuildIndex(pkgs)
	sweep := slices.Contains(analyzers, StaleIgnore)
	var all []Diagnostic
	for _, pkg := range pkgs {
		sup := buildSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a != StaleIgnore { // runs as the sweep below, after every analyzer
				all = append(all, runOne(a, pkg, ix, sup)...)
			}
		}
		if sweep {
			all = append(all, staleSweep(sup, analyzers)...)
		}
	}
	sortDiagnostics(all)
	return all
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// funcObj resolves a call expression's callee to its *types.Func, or
// nil when the callee is not a declared function or method (e.g. a
// conversion or a function-typed variable).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
