package lint

// StaleIgnore keeps the suppression inventory honest. A //lint:ignore
// comment is a standing claim — "a finding fires here and we accept
// it" — and the claim rots: the flagged code gets refactored away, an
// analyzer gets smarter, and the comment stays behind, silently ready
// to mask the next real finding on that line. This analyzer reports
// every suppression that matched nothing in the current run.
//
// Unlike the other analyzers it cannot run per-package in isolation —
// staleness is "no analyzer in the suite matched", so it executes as a
// sweep inside RunAll after every other analyzer has marked the
// suppressions it consumed. A suppression is a stale candidate only
// when its target analyzer actually ran (under -only a comment for an
// unselected analyzer proves nothing) and it sits in non-test code
// (test files are exempt from every analyzer, so their suppressions
// never match by construction).
//
// The sweep is phased to break the self-reference knot: first
// non-staleignore suppressions are judged, and a stale report may
// itself be silenced with //lint:ignore staleignore <why> — which marks
// that comment used; then staleignore-targeted suppressions that are
// still unused are reported unconditionally (a suppression of a
// suppression of nothing has no defensible reading).

// StaleIgnore reports //lint:ignore comments that suppress nothing. Its
// Run is a no-op: the real logic is the staleSweep RunAll performs
// after the rest of the suite.
var StaleIgnore = &Analyzer{
	Name: "staleignore",
	Doc:  "reports //lint:ignore comments that no longer suppress any finding",
	Run:  func(*Pass) {},
}

// staleSweep reports the unused suppressions of one package after the
// whole suite has run over it.
func staleSweep(sup *suppressions, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	report := func(s *suppression) {
		diags = append(diags, Diagnostic{
			Pos:      s.pos,
			Analyzer: StaleIgnore.Name,
			Message:  "//lint:ignore " + s.analyzer + " suppresses nothing; remove the stale comment",
		})
	}
	for _, byFile := range sup.byFile {
		for _, s := range byFile {
			if s.used || s.inTest || s.analyzer == StaleIgnore.Name {
				continue
			}
			if s.analyzer != "all" && !ran[s.analyzer] {
				continue
			}
			// The stale report may itself be suppressed; match marks the
			// covering staleignore comment used.
			if sup.match(StaleIgnore.Name, s.pos) {
				continue
			}
			report(s)
		}
	}
	for _, byFile := range sup.byFile {
		for _, s := range byFile {
			if !s.used && !s.inTest && s.analyzer == StaleIgnore.Name {
				report(s)
			}
		}
	}
	return diags
}
