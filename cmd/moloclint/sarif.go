package main

import (
	"encoding/json"
	"io"
	"path/filepath"

	"moloc/internal/lint"
)

// SARIF 2.1.0 output — the Static Analysis Results Interchange Format
// profile GitHub code scanning ingests. Only the required skeleton is
// emitted: one run, the driver's rule table, and one result per
// finding with a physical location. URIs are module-root-relative with
// uriBaseId %SRCROOT%, the convention upload-sarif resolves against
// the checkout root.

const sarifSchema = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifReport builds the SARIF log for one lint run. Every analyzer in
// the run appears in the rule table whether or not it fired; findings
// all carry level "error", matching the driver's non-zero exit.
func sarifReport(root string, analyzers []*lint.Analyzer, diags []lint.Diagnostic) *sarifLog {
	rules := make([]sarifRule, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}}
	}
	results := []sarifResult{} // non-nil: clean runs must serialize as "results": []
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       moduleRelative(root, d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	return &sarifLog{
		Schema:  sarifSchema,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "moloclint", Rules: rules}},
			Results: results,
		}},
	}
}

// writeSARIF serializes the report with stable indentation so repeated
// runs over identical findings are byte-identical.
func writeSARIF(w io.Writer, root string, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(sarifReport(root, analyzers, diags))
}

// moduleRelative renders a source path relative to the module root in
// forward-slash form, falling back to the path unchanged when it lies
// outside the root.
func moduleRelative(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || rel == ".." || filepath.IsAbs(rel) ||
		len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator) {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}
