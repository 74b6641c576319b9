package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts `// want `regex“ annotations from fixture comments.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one parsed want annotation.
type expectation struct {
	raw     string
	re      *regexp.Regexp
	matched bool
}

// runFixtureTest loads testdata/<analyzer> (including _test.go files,
// to prove the per-file test exemption), runs the analyzer over every
// fixture package, and compares the diagnostics line-by-line against
// the `// want` annotations: every diagnostic must match an annotation
// on its line, and every annotation must be hit exactly once.
func runFixtureTest(t *testing.T, a *Analyzer) {
	t.Helper()
	runFixtureSuite(t, a.Name, []*Analyzer{a})
}

// runFixtureSuite is runFixtureTest over a whole analyzer suite: the
// fixture tree is analyzed with RunAll, so the cross-function index
// spans every fixture package (the cross-package cases need it) and
// the staleignore sweep runs when the suite includes it.
func runFixtureSuite(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	root := filepath.Join("testdata", name)
	pkgs, err := LoadTree(root, "", true)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s", root)
	}

	wants := make(map[string]map[int][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						if wants[pos.Filename] == nil {
							wants[pos.Filename] = make(map[int][]*expectation)
						}
						wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line],
							&expectation{raw: m[1], re: re})
					}
				}
			}
		}
	}

	for _, d := range RunAll(pkgs, analyzers) {
		exps := wants[d.Pos.Filename][d.Pos.Line]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, lines := range wants {
		for line, exps := range lines {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: no diagnostic matching `%s`", file, line, e.raw)
				}
			}
		}
	}
}

func TestDegNorm(t *testing.T)   { runFixtureTest(t, DegNorm) }
func TestRandSrc(t *testing.T)   { runFixtureTest(t, RandSrc) }
func TestLockGuard(t *testing.T) { runFixtureTest(t, LockGuard) }
func TestErrDrop(t *testing.T)   { runFixtureTest(t, ErrDrop) }

func TestSnapshotGuard(t *testing.T) { runFixtureTest(t, SnapshotGuard) }

func TestAtomicMix(t *testing.T)  { runFixtureTest(t, AtomicMix) }
func TestBufAlias(t *testing.T)   { runFixtureTest(t, BufAlias) }
func TestDurableAck(t *testing.T) { runFixtureTest(t, DurableAck) }
func TestWaitLeak(t *testing.T)   { runFixtureTest(t, WaitLeak) }

// TestStaleIgnore runs the full suite over its fixture: staleness is
// "no analyzer matched", so the sweep only means something with the
// other analyzers live to consume the suppressions that still earn
// their keep.
func TestStaleIgnore(t *testing.T) { runFixtureSuite(t, StaleIgnore.Name, Analyzers()) }

// TestRepoIsClean runs the full suite over the real module and demands
// zero findings — the repository must stay lint-clean. It mirrors the
// `go run ./cmd/moloclint ./...` CI step.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, modPath, err := ModulePath(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAll(pkgs, Analyzers()) {
		t.Errorf("finding: %s", d)
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) did not round-trip", a.Name)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName should return nil for unknown names")
	}
}

// TestIndexTransitiveFacts pins the engine's fixed-point propagation
// over the static call graph, using the fixture trees as input: the
// durableack handler reaches AppendNoSync and WaitDurable only through
// its enqueue wrapper, and the waitleak loop carries its Done and
// channel-blocking facts up to every caller.
func TestIndexTransitiveFacts(t *testing.T) {
	factsOf := func(ix *Index, name string) *FuncFacts {
		t.Helper()
		for fn, facts := range ix.funcs {
			if fn.Name() == name {
				return facts
			}
		}
		t.Fatalf("no indexed function named %s", name)
		return nil
	}

	pkgs, err := LoadTree(filepath.Join("testdata", "durableack"), "", false)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(pkgs)
	if !factsOf(ix, "AppendNoSync").AppendsWAL {
		t.Error("(*wal.Log).AppendNoSync itself must carry AppendsWAL")
	}
	if factsOf(ix, "AppendNoSync").WaitsDurable {
		t.Error("(*wal.Log).AppendNoSync is no durability wait")
	}
	if !factsOf(ix, "WaitDurable").WaitsDurable {
		t.Error("(*wal.GroupCommitter).WaitDurable itself must carry WaitsDurable")
	}
	if !factsOf(ix, "enqueue").AppendsWAL {
		t.Error("enqueue calls AppendNoSync directly; AppendsWAL must propagate")
	}
	if !factsOf(ix, "handleGood").AppendsWAL {
		t.Error("handleGood reaches AppendNoSync through enqueue; AppendsWAL must be transitive")
	}
	if !factsOf(ix, "handleGood").WaitsDurable {
		t.Error("handleGood reaches WaitDurable through enqueue; WaitsDurable must be transitive")
	}
	if factsOf(ix, "saveGood").AppendsWAL {
		t.Error("saveGood never reaches a WAL append")
	}
	if !factsOf(ix, "WriteAck").SendsAck {
		t.Error("(*wire.Writer).WriteAck carries //moloc:ack; SendsAck must be set")
	}
	if !factsOf(ix, "commitAcks").SendsAck {
		t.Error("commitAcks calls WriteAck directly; SendsAck must propagate")
	}
	if !factsOf(ix, "serveGood").SendsAck {
		t.Error("serveGood reaches WriteAck through commitAcks; SendsAck must be transitive")
	}
	if factsOf(ix, "enqueueStream").SendsAck {
		t.Error("enqueueStream never reaches an ack primitive")
	}
	if !factsOf(ix, "enqueueStream").AppendsWAL {
		t.Error("enqueueStream calls AppendNoSync; AppendsWAL must cover the group-commit append")
	}
	if factsOf(ix, "enqueueStream").WaitsDurable {
		t.Error("enqueueStream only calls AppendNoSync; that is no durability wait")
	}
	if !factsOf(ix, "enqueue").WaitsDurable {
		t.Error("enqueue calls WaitDurable directly; WaitsDurable must propagate")
	}
	if !factsOf(ix, "waitDurable").WaitsDurable {
		t.Error("waitDurable calls WaitDurable directly; WaitsDurable must propagate")
	}
	if !factsOf(ix, "serveGood").WaitsDurable {
		t.Error("serveGood reaches WaitDurable through waitDurable; WaitsDurable must be transitive")
	}

	pkgs, err = LoadTree(filepath.Join("testdata", "waitleak"), "", false)
	if err != nil {
		t.Fatal(err)
	}
	ix = BuildIndex(pkgs)
	loop := factsOf(ix, "loop")
	if !loop.RetiresWG || !loop.Blocking {
		t.Errorf("loop defers wg.Done and ranges a channel; got RetiresWG=%v Blocking=%v",
			loop.RetiresWG, loop.Blocking)
	}
	if !factsOf(ix, "await").Blocking {
		t.Error("await receives from a channel; Blocking must be set")
	}
	if factsOf(ix, "work").Blocking || factsOf(ix, "work").RetiresWG {
		t.Error("work has no concurrency facts")
	}
}

func TestPkgHasSegments(t *testing.T) {
	cases := []struct {
		path, want string
		ok         bool
	}{
		{"internal/geom", "internal/geom", true},
		{"moloc/internal/geom", "internal/geom", true},
		{"moloc/internal/geometry", "internal/geom", false},
		{"geom", "internal/geom", false},
		{"moloc/internal/stats", "internal/stats", true},
		{"a/internal/geom/sub", "internal/geom", true},
	}
	for _, c := range cases {
		if got := pkgHasSegments(c.path, c.want); got != c.ok {
			t.Errorf("pkgHasSegments(%q, %q) = %v, want %v", c.path, c.want, got, c.ok)
		}
	}
}
