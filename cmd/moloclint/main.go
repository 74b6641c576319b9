// Command moloclint runs the moloclint static-analysis suite
// (internal/lint) over the repository and exits non-zero on any
// unsuppressed finding. It enforces the numeric and concurrency
// invariants the compiler cannot: bearing arithmetic through
// internal/geom, randomness through internal/stats, mutex-guarded
// struct fields, no silently dropped errors, allocation-free
// //moloc:hotpath functions, atomic-only access to //moloc:snapshot
// RCU fields, typed atomics only, reused scratch not retained, acks
// only after durability, and joinable goroutines (-list prints the
// suite).
//
// Usage:
//
//	moloclint [-only degnorm,randsrc] [-list] [-sarif] [packages]
//
// Package arguments are directory paths relative to the module root;
// "./..." (or no argument) analyzes the whole module. Suppress a
// finding with a `//lint:ignore <analyzer> <reason>` comment on the
// flagged line or the line above it.
//
// -sarif switches the stdout format from file:line:col text to a SARIF
// 2.1.0 log (what GitHub code scanning ingests); the exit status is 1
// on findings in either format.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"moloc/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: moloclint [-only names] [-list] [-sarif] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "moloclint:", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "moloclint:", err)
		os.Exit(2)
	}
	root, modPath, err := lint.ModulePath(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "moloclint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(root, modPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "moloclint:", err)
		os.Exit(2)
	}
	pkgs, err = filterPackages(pkgs, cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "moloclint:", err)
		os.Exit(2)
	}
	diags := lint.RunAll(pkgs, analyzers)

	if *sarifOut {
		if err := writeSARIF(os.Stdout, root, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "moloclint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			pos := d.Pos
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
			fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "moloclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -only flag to a set of analyzers.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.Analyzers(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := lint.AnalyzerByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the suite)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// filterPackages restricts the loaded packages to the requested
// patterns. "./..." and "" select everything under the invocation
// directory; "dir" selects that package, "dir/..." its subtree. A
// pattern that matches nothing is an error, so a typo'd path cannot
// read as a clean run.
func filterPackages(pkgs []*lint.Package, cwd string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched := make(map[string]bool, len(patterns))
	var out []*lint.Package
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matchPattern(p.Dir, cwd, pat) {
				matched[pat] = true
				out = append(out, p)
				break
			}
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// matchPattern reports whether the package directory matches one
// ./-style pattern resolved against the invocation directory.
func matchPattern(pkgDir, cwd, pat string) bool {
	recursive := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		if pat == "" {
			pat = "."
		}
	}
	base := filepath.Join(cwd, pat)
	if pkgDir == base {
		return true
	}
	if !recursive {
		return false
	}
	rel, err := filepath.Rel(base, pkgDir)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}
