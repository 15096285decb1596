// Command tsandebug is an interactive, scriptable time-travel debugger
// over recorded demos. It replays a demo under debugger control, takes
// sparse checkpoints (stream offsets + PRNG state + tick count + thread
// states — no memory snapshots), and navigates the execution in both
// directions: run-to-tick, step, step-thread, reverse-step,
// reverse-continue to the last write of a raced variable, breakpoints on
// (variable, op-kind, thread) predicates, trace-window and state dumps.
// Travelling backwards restarts the replay from the nearest checkpoint
// and verifies bit-identical convergence before handing control back.
//
// Usage:
//
//	tsandebug -program ms-queue -demo race.demo              # REPL
//	tsandebug -program ms-queue -demo race.demo -script s.dbg
//	tsandebug -program ms-queue -demo race.demo -e 'run-to-tick 40; state'
//
// Exit status: 0 when every command succeeded, 1 for a session or command
// failure, 2 for a usage error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/apps/litmus"
	"repro/internal/debugger"
	"repro/internal/demo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, in io.Reader, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tsandebug", flag.ContinueOnError)
	fs.SetOutput(errOut)
	progName := fs.String("program", "", "litmus program the demo was recorded from (required)")
	demoPath := fs.String("demo", "", "demo file to debug (required)")
	script := fs.String("script", "", "run commands from this file instead of a REPL")
	expr := fs.String("e", "", "run these semicolon-separated commands instead of a REPL")
	every := fs.Uint64("checkpoint-every", 64, "checkpoint interval in ticks")
	ring := fs.Int("trace-ring", 0, "live trace ring capacity (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *progName == "" || *demoPath == "" || fs.NArg() != 0 {
		fmt.Fprintln(errOut, "usage: tsandebug -program <litmus program> -demo <file> [-script file | -e 'cmd; cmd'] [-checkpoint-every N]")
		fmt.Fprintf(errOut, "programs: %s\n", strings.Join(litmusNames(), ", "))
		return 2
	}
	p, ok := litmus.ByName(*progName)
	if !ok {
		fmt.Fprintf(errOut, "tsandebug: unknown program %q (known: %s)\n", *progName, strings.Join(litmusNames(), ", "))
		return 2
	}
	d, err := demo.ReadFile(*demoPath)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	sess, err := debugger.New(p, d,
		debugger.Options{CheckpointEvery: *every, TraceRing: *ring})
	if err != nil {
		fmt.Fprintf(errOut, "tsandebug: %v\n", err)
		return 1
	}
	defer sess.Close()
	ex := &debugger.Executor{S: sess, W: out}

	switch {
	case *script != "" && *expr != "":
		fmt.Fprintln(errOut, "tsandebug: -script and -e are mutually exclusive")
		return 2
	case *script != "":
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		defer f.Close()
		return runScript(ex, bufio.NewScanner(f), out)
	case *expr != "":
		lines := strings.Split(*expr, ";")
		return runLines(ex, lines, out)
	default:
		return repl(ex, in, out)
	}
}

// runScript executes commands from a scanner, echoing each before its
// output (the transcript CI archives). The first failing command ends the
// run with status 1 — scripted sessions are assertions, not conversations.
func runScript(ex *debugger.Executor, sc *bufio.Scanner, out io.Writer) int {
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return runLines(ex, lines, out)
}

func runLines(ex *debugger.Executor, lines []string, out io.Writer) int {
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Fprintf(out, "(tsandebug) %s\n", line)
		quit, err := ex.Exec(line)
		if err != nil {
			return 1
		}
		if quit {
			break
		}
	}
	return 0
}

// repl is the interactive loop: command errors are printed and the
// session continues.
func repl(ex *debugger.Executor, in io.Reader, out io.Writer) int {
	fmt.Fprintln(out, "tsandebug — time-travel debugger (help for commands)")
	ex.Exec("info")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "(tsandebug) ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return 0
		}
		quit, _ := ex.Exec(sc.Text())
		if quit {
			return 0
		}
	}
}

func litmusNames() []string {
	names := make([]string, 0, len(litmus.Programs))
	for _, p := range litmus.Programs {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}
