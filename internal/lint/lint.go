// Package lint is a stdlib-only static-analysis framework that enforces
// the instrumentation discipline the record/replay runtime depends on.
//
// The runtime (internal/core) can only record — and therefore only replay —
// what flows through its API: Thread.Spawn, core.Mutex/Cond, core.Atomic64,
// core.Var, and the env syscall wrappers. Any nondeterminism outside that
// API (a raw `go` statement, sync.Mutex, time.Now, math/rand, a bare
// channel) is invisible to the scheduler and silently corrupts recordings,
// surfacing later as unexplainable hard or soft desyncs on replay. For
// tsan11rec the compiler instrumented everything; here nothing does, so
// this package turns the contract into a checked invariant.
//
// The framework loads packages with go/parser + go/types (no external
// module dependencies), runs a set of analyzers over each "instrumented"
// package, and reports findings. Code that legitimately lives outside the
// scheduler — external-world servers, load generators, host-side drivers —
// is marked with //tsanrec:external; single findings are waived with
// //tsanrec:allow(check). Both directives require a justification and both
// must pull their weight: a directive that suppresses nothing is itself a
// finding, so stale annotations cannot accumulate.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Severity classifies a finding.
type Severity int

// Severities. Every finding, regardless of severity, makes tsanvet exit
// nonzero; the distinction is informational (discipline violations are
// errors, directive hygiene problems are warnings).
const (
	SeverityWarning Severity = iota
	SeverityError
)

func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// MarshalText implements encoding.TextMarshaler for -json output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Finding is one analyzer report, anchored to a source position.
type Finding struct {
	Pos      token.Position `json:"pos"`
	Check    string         `json:"check"`
	Message  string         `json:"message"`
	Severity Severity       `json:"severity"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// Analyzer is one discipline check run over a loaded package.
type Analyzer interface {
	// Name is the check name used in findings and //tsanrec:allow(name).
	Name() string
	// Doc is a one-line description of what the check enforces.
	Doc() string
	// Run analyzes pkg and returns raw findings; suppression by
	// //tsanrec:* directives is applied afterwards by the Runner.
	Run(prog *Program, pkg *Package) []Finding
}

// Analyzers returns the full analyzer suite in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		RawGo{},
		RawSync{},
		VarEscape{},
	}
}

// AnalyzerNames returns the names of every registered analyzer, including
// the directive hygiene pseudo-check.
func AnalyzerNames() []string {
	names := []string{CheckDirective}
	for _, a := range Analyzers() {
		names = append(names, a.Name())
	}
	sort.Strings(names)
	return names
}

// knownCheck reports whether name is a valid //tsanrec:allow target.
func knownCheck(name string) bool {
	for _, n := range AnalyzerNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes the analyzer suite over every package in prog, applies
// directive suppression, appends directive hygiene findings, and returns
// the surviving findings sorted by position.
func Run(prog *Program, analyzers []Analyzer) []Finding {
	return RunPackages(prog, analyzers, prog.Packages)
}

// RunPackages is Run restricted to the given packages (directives are
// file-scoped, so restricting suppression to the same set is exact).
func RunPackages(prog *Program, analyzers []Analyzer, pkgs []*Package) []Finding {
	var raw []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			raw = append(raw, a.Run(prog, pkg)...)
		}
	}
	var kept []Finding
	for _, f := range raw {
		suppressed := false
		for _, pkg := range pkgs {
			if pkg.suppresses(f) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, pkg := range pkgs {
		kept = append(kept, pkg.directiveFindings(prog.Fset)...)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return kept
}

// corePath and friends identify the instrumentation API packages inside
// the module.
const (
	coreSuffix = "/internal/core"
	concSuffix = "/internal/conc"
)

// frameworkDirs are module-relative package paths (and their subtrees)
// that implement the runtime itself and are therefore exempt from the
// discipline: they are the instrumentation, not the instrumented program.
var frameworkDirs = []string{
	"internal/core",
	"internal/conc",
	"internal/sched",
	"internal/env",
	"internal/tsan",
	"internal/demo",
	"internal/vclock",
	"internal/rle",
	"internal/prng",
	"internal/stats",
	"internal/rrmodel",
	"internal/lint",
}

// harnessDirs hold host-side benchmark and tooling binaries. They
// orchestrate runtimes from the outside (wall-clock timing, flag parsing)
// and never run under a scheduler thread, so no check applies to them;
// only their directives' hygiene is checked.
var harnessDirs = []string{
	"cmd",
}

func underAny(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// Instrumented reports whether pkg is program-under-test code subject to
// the full discipline: it imports the core (or conc) API and is neither
// part of the runtime framework nor a host-side harness binary. Analyzer
// test fixtures under internal/lint/testdata are deliberately counted as
// instrumented so the checks can be exercised on them.
func (p *Program) Instrumented(pkg *Package) bool {
	rel := p.relPath(pkg.ImportPath)
	if strings.Contains(pkg.ImportPath, "/testdata/") {
		return pkg.importsCore()
	}
	if underAny(rel, frameworkDirs) || underAny(rel, harnessDirs) {
		return false
	}
	return pkg.importsCore()
}

// relPath strips the module path prefix from an import path.
func (p *Program) relPath(importPath string) string {
	if importPath == p.ModulePath {
		return "."
	}
	return strings.TrimPrefix(importPath, p.ModulePath+"/")
}

func (pkg *Package) importsCore() bool {
	for _, imp := range pkg.Imports {
		if strings.HasSuffix(imp, coreSuffix) || strings.HasSuffix(imp, concSuffix) {
			return true
		}
	}
	return false
}
