package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"moloc/internal/lint"
)

func sampleDiags(root string) []lint.Diagnostic {
	return []lint.Diagnostic{
		{
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "geom", "geom.go"), Line: 12, Column: 9},
			Analyzer: "degnorm",
			Message:  "raw math.Mod on a bearing",
		},
		{
			Pos:      token.Position{Filename: filepath.Join(root, "cmd", "molocd", "main.go"), Line: 3, Column: 1},
			Analyzer: "waitleak",
			Message:  "goroutine has no WaitGroup Add/Done pair, stop-channel, or completion send",
		},
	}
}

// TestSARIFStructure validates the emitted log against the SARIF 2.1.0
// required shape: $schema and version, one run with a named tool
// driver and rule table, and per-result ruleId, level, message.text,
// and a physical location with a %SRCROOT%-based relative URI.
func TestSARIFStructure(t *testing.T) {
	root := filepath.FromSlash("/work/moloc")
	var buf bytes.Buffer
	if err := writeSARIF(&buf, root, lint.Analyzers(), sampleDiags(root)); err != nil {
		t.Fatal(err)
	}

	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log["$schema"] != sarifSchema {
		t.Errorf("$schema = %v", log["$schema"])
	}
	if log["version"] != "2.1.0" {
		t.Errorf("version = %v", log["version"])
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "moloclint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != len(lint.Analyzers()) {
		t.Errorf("rule table has %d entries, want %d", len(rules), len(lint.Analyzers()))
	}
	ruleIDs := map[string]bool{}
	for _, r := range rules {
		rule := r.(map[string]any)
		id, _ := rule["id"].(string)
		ruleIDs[id] = true
		if text, _ := rule["shortDescription"].(map[string]any)["text"].(string); text == "" {
			t.Errorf("rule %s has no shortDescription.text", id)
		}
	}

	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	first := results[0].(map[string]any)
	if !ruleIDs[first["ruleId"].(string)] {
		t.Errorf("result ruleId %v is not in the rule table", first["ruleId"])
	}
	if first["level"] != "error" {
		t.Errorf("level = %v", first["level"])
	}
	if msg, _ := first["message"].(map[string]any)["text"].(string); msg == "" {
		t.Error("result has no message.text")
	}
	loc := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	art := loc["artifactLocation"].(map[string]any)
	if art["uri"] != "internal/geom/geom.go" {
		t.Errorf("uri = %v, want module-relative forward-slash path", art["uri"])
	}
	if art["uriBaseId"] != "%SRCROOT%" {
		t.Errorf("uriBaseId = %v", art["uriBaseId"])
	}
	region := loc["region"].(map[string]any)
	if region["startLine"] != float64(12) || region["startColumn"] != float64(9) {
		t.Errorf("region = %v", region)
	}
}

// TestSARIFCleanRun pins the empty-findings shape: GitHub's upload
// rejects a null results array, so a clean run must serialize
// "results": [].
func TestSARIFCleanRun(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, "/work/moloc", lint.Analyzers(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("clean run must emit an empty results array, got:\n%s", buf.String())
	}
}
