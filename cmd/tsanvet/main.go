// Command tsanvet is a vet-style static analyzer that enforces the
// instrumentation discipline the record/replay runtime depends on: every
// visible operation in a program under test must go through the
// internal/core API, and every source of nondeterminism outside it must be
// explicitly marked. See the "Instrumentation discipline" section of
// README.md for the contract and the //tsanrec:* directives.
//
// Usage:
//
//	tsanvet [-json] [-list] [packages]
//
// Packages are directories or "dir/..." patterns (default "./...").
// Exit status: 0 clean, 1 findings, 2 usage or load error. The -json
// schema is documented in DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tsanvet", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the checks and exit")
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: tsanvet [-json] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(out, "%-10s %s\n", a.Name(), a.Doc())
		}
		fmt.Fprintf(out, "%-10s %s\n", lint.CheckDirective, "//tsanrec:* directives must be well-formed, justified and load-bearing")
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errOut, "tsanvet:", err)
		return 2
	}
	prog, err := lint.NewProgram(cwd)
	if err != nil {
		fmt.Fprintln(errOut, "tsanvet:", err)
		return 2
	}
	if err := prog.Load(cwd, fs.Args()); err != nil {
		fmt.Fprintln(errOut, "tsanvet:", err)
		return 2
	}

	findings := lint.Run(prog, lint.Analyzers())
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(errOut, "tsanvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(errOut, "tsanvet: %d finding(s) in %d package(s)\n", len(findings), len(prog.Packages))
		return 1
	}
	return 0
}
