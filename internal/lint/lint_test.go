package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func moduleRootForTest(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// wantKey identifies one expected finding parsed from a fixture comment.
type wantKey struct {
	file  string // base name of the fixture file
	line  int
	check string
}

// parseWant extracts `// want <check>...` markers from every fixture file
// in dir. A trailing marker refers to its own line; a marker alone on its
// line refers to the line below it (needed for directive findings, whose
// anchor line is itself a comment).
func parseWant(t *testing.T, dir string) map[wantKey]int {
	t.Helper()
	want := make(map[wantKey]int)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		const marker = "// want "
		lines := strings.Split(string(data), "\n")
		for i, ln := range lines {
			idx := strings.Index(ln, marker)
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based line of the marker itself
			if strings.TrimSpace(ln[:idx]) == "" {
				// Standalone marker: refers to the next substantive line,
				// skipping gofmt's blank `//` separator comments.
				target++
				for target-1 < len(lines) && strings.TrimSpace(lines[target-1]) == "//" {
					target++
				}
			}
			for _, check := range strings.Fields(ln[idx+len(marker):]) {
				want[wantKey{e.Name(), target, check}]++
			}
		}
	}
	return want
}

// TestAnalyzersOnFixtures runs the full suite over every golden fixture
// package under testdata/src/<check>/{bad,clean} and compares the findings
// against the fixtures' `// want` markers. Clean fixtures double as the
// suppression tests: their directives must silence the seeded violations
// without themselves being reported stale. Every check in AnalyzerNames
// needs a fixture directory, and every fixture directory needs both sides.
func TestAnalyzersOnFixtures(t *testing.T) {
	root := moduleRootForTest(t)
	prog, err := NewProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(root, "internal", "lint", "testdata", "src")
	checkDirs, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	hasFixture := make(map[string]bool)
	for _, checkDir := range checkDirs {
		hasFixture[checkDir.Name()] = checkDir.IsDir()
	}
	for _, name := range AnalyzerNames() {
		if !hasFixture[name] {
			t.Errorf("check %q has no fixture directory under testdata/src", name)
		}
	}
	for _, checkDir := range checkDirs {
		if !checkDir.IsDir() {
			continue
		}
		for _, kind := range []string{"bad", "clean"} {
			dir := filepath.Join(src, checkDir.Name(), kind)
			t.Run(checkDir.Name()+"/"+kind, func(t *testing.T) {
				if _, err := os.Stat(dir); err != nil {
					t.Fatalf("every fixture directory needs both sides: %v", err)
				}
				if err := prog.Load(dir, []string{dir}); err != nil {
					t.Fatal(err)
				}
				importPath, err := prog.importPathFor(dir)
				if err != nil {
					t.Fatal(err)
				}
				pkg := prog.byPath[importPath]
				if pkg == nil {
					t.Fatalf("package %s not loaded", importPath)
				}
				want := parseWant(t, dir)
				if kind == "bad" && len(want) == 0 {
					t.Fatal("bad fixture carries no // want markers")
				}
				if kind == "clean" && len(want) != 0 {
					t.Fatal("clean fixture must not carry // want markers")
				}
				for _, f := range RunPackages(prog, Analyzers(), []*Package{pkg}) {
					k := wantKey{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check}
					if want[k] > 0 {
						want[k]--
						if want[k] == 0 {
							delete(want, k)
						}
						continue
					}
					t.Errorf("unexpected finding: %s", f)
				}
				for k, n := range want {
					t.Errorf("missing finding: %s:%d [%s] (x%d)", k.file, k.line, k.check, n)
				}
			})
		}
	}
}

// TestRepoIsClean is the acceptance property behind `tsanvet ./...`: the
// repository's own tree must produce zero findings.
func TestRepoIsClean(t *testing.T) {
	root := moduleRootForTest(t)
	prog, err := NewProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Load(root, []string{"./..."}); err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(prog, Analyzers()) {
		t.Errorf("repo not tsanvet-clean: %s", f)
	}
}

func TestParseDirectiveText(t *testing.T) {
	cases := []struct {
		text      string
		malformed bool
	}{
		{"//tsanrec:external models an outside server", false},
		{"//tsanrec:external", true},
		{"//tsanrec:allow(rawgo) host-side helper", false},
		{"//tsanrec:allow(rawgo)", true},
		{"//tsanrec:allow(nosuchcheck) reason", true},
		{"//tsanrec:allow(rawgo reason", true},
		{"//tsanrec:frobnicate reason", true},
	}
	for _, c := range cases {
		d := parseOne(c.text)
		if got := d.malformed != ""; got != c.malformed {
			t.Errorf("parseOne(%q): malformed=%v (%q), want malformed=%v", c.text, got, d.malformed, c.malformed)
		}
	}
}

// TestAnalyzerNamesAreKnown pins the check set to the checks that guard
// the instrumentation substitution; bug finding is left to controlled
// execution. It is also what tsanvet -list prints.
func TestAnalyzerNamesAreKnown(t *testing.T) {
	names := AnalyzerNames()
	want := []string{CheckDirective, "rawgo", "rawsync", "varescape"}
	if !slices.Equal(names, want) {
		t.Errorf("AnalyzerNames() = %v, want %v", names, want)
	}
	for _, n := range names {
		if !knownCheck(n) {
			t.Errorf("name %q not accepted by knownCheck", n)
		}
	}
	if knownCheck("nosuchcheck") {
		t.Error("knownCheck accepted an unknown name")
	}
}
