package lint

// AtomicMix enforces the single-discipline rule for shared cells: a
// struct field or package-level variable whose address is ever handed
// to a sync/atomic function must be accessed through sync/atomic
// everywhere. One plain load racing one atomic.AddInt64 is already
// undefined — the obs counters, tracker stats, and the snapshot RCU
// cell all rely on every access agreeing on the discipline, and the
// engine's module-wide field summaries let the check cross package
// boundaries where snapshotguard (annotation-driven, same-package)
// cannot.
//
// Findings flow along the import DAG: when analyzing package P the
// analyzer only consults uses in P and its transitive dependencies, and
// only reports positions inside P. A mix that spans packages is
// therefore reported from the importer — the first package that can see
// both sides.

import (
	"fmt"
	"go/token"
	"path/filepath"
)

// AtomicMix reports fields accessed both atomically and plainly.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a field touched via sync/atomic anywhere must never be accessed plainly elsewhere",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	for _, ff := range pass.Index.fields {
		var atomics, plains []fieldUse
		for _, u := range ff.Uses {
			if !pass.Index.visible(pass.Path, u.Pkg) {
				continue
			}
			if u.Atomic {
				atomics = append(atomics, u)
			} else {
				plains = append(plains, u)
			}
		}
		if len(atomics) == 0 || len(plains) == 0 {
			continue
		}
		name := ff.Obj.Name()
		localPlain := false
		for _, u := range plains {
			if u.Pkg != pass.Path {
				continue
			}
			localPlain = true
			verb := "read"
			if u.Write {
				verb = "written"
			}
			pass.reportAt(u.Pos, "%s is touched via sync/atomic (%s) but %s plainly here",
				name, shortPos(atomics[0].Pos), verb)
		}
		if localPlain {
			continue
		}
		// The plain side lives in a dependency this package cannot be
		// blamed for; the mix is still real, so the atomic uses here are
		// the reportable half.
		for _, u := range atomics {
			if u.Pkg != pass.Path {
				continue
			}
			pass.reportAt(u.Pos, "%s is accessed plainly (%s) but via sync/atomic here",
				name, shortPos(plains[0].Pos))
		}
	}
}

// shortPos renders a position as basename:line, keeping absolute
// fixture paths out of diagnostic messages.
func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}
