package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func runCapture(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestJSONFindingsGolden pins the -json finding schema byte-for-byte: field
// names (pos/check/message/severity), the token.Position sub-object, the
// severity spelling, and the deterministic sort order. CI consumers parse
// this; changing it is a breaking change that must update DESIGN.md too.
func TestJSONFindingsGolden(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "rawgo", "bad")
	out, _, code := runCapture(t, "-json", dir)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present)", code)
	}
	got := strings.ReplaceAll(out, root, "MODROOT")
	want, err := os.ReadFile(filepath.Join("testdata", "findings.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-json output drifted from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The bytes above imply this, but decode anyway so a future golden
	// regeneration cannot silently bless a schema break.
	var findings []struct {
		Pos struct {
			Filename string `json:"Filename"`
			Line     int    `json:"Line"`
			Column   int    `json:"Column"`
		} `json:"pos"`
		Check    string `json:"check"`
		Message  string `json:"message"`
		Severity string `json:"severity"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Check == "" || f.Message == "" || f.Severity == "" || f.Pos.Line == 0 {
			t.Errorf("finding missing required field: %+v", f)
		}
	}
}
