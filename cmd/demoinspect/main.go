// Command demoinspect decodes a demo file, validates it, and prints its
// header, stream sizes and contents — the debugging companion for the
// record/replay workflow.
//
// Usage:
//
//	demoinspect [-v] demo.bin
//	demoinspect -diff a.demo b.demo
//
// Exit status: 0 for a valid demo, 1 for a file that cannot be read,
// decoded or validated (the header and sections are still printed for a
// demo that decodes but fails validation), 2 for a usage error.
//
// With -diff the tool prints the tick-aligned difference between two
// demos — header fields, the first divergent queue-schedule tick, the
// SIGNAL/ASYNC multiset differences and the first mismatched syscall —
// the view that makes a mutated demo's edit relative to its ancestor (or
// a divergent re-recording relative to the original) legible. Exit
// status follows diff(1): 0 when identical, 1 when the demos differ, 2
// when a file cannot be read.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("demoinspect", flag.ContinueOnError)
	fs.SetOutput(errOut)
	verbose := fs.Bool("v", false, "dump individual events and syscalls")
	statsFlag := fs.Bool("stats", false, "print per-stream event counts and encoded sizes as a metrics table")
	windowFlag := fs.String("window", "", "print the stream events of tick window T1..T2 (or a single tick T)")
	recoverFlag := fs.Bool("recover", false, "recover the longest valid prefix of a torn v2 streamed recording")
	outFlag := fs.String("o", "", "write the (recovered) demo to this path as a v1 demo file")
	diffFlag := fs.Bool("diff", false, "diff two demos (tick-aligned); exit 0 identical, 1 different")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diffFlag {
		if fs.NArg() != 2 {
			fmt.Fprintln(errOut, "usage: demoinspect -diff <demo A> <demo B>")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), out, errOut)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errOut, "usage: demoinspect [-v] [-stats] [-window T1..T2] [-recover] [-o out.demo] <demo file>")
		return 2
	}
	var d *demo.Demo
	var err error
	if *recoverFlag {
		d, err = demo.Recover(fs.Arg(0))
	} else {
		d, err = demo.ReadFile(fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	fmt.Fprintf(out, "strategy:    %s\n", d.Strategy)
	fmt.Fprintf(out, "seeds:       %#x %#x\n", d.Seed1, d.Seed2)
	fmt.Fprintf(out, "final tick:  %d\n", d.FinalTick)
	if d.Truncated {
		fmt.Fprintln(out, "truncated:   yes (a prefix of the run: replay stops at the final tick)")
	}
	fmt.Fprintf(out, "output hash: %#x\n", d.OutputHash)
	fmt.Fprintf(out, "total size:  %d bytes\n", d.Size())
	fmt.Fprintln(out, "sections:")
	sizes := d.SectionSizes()
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-8s %d bytes\n", k, sizes[k])
	}
	fmt.Fprintf(out, "streams: %d queue threads, %d signals, %d asyncs, %d syscalls\n",
		len(d.Queue.FirstTick), len(d.Signals), len(d.Asyncs), len(d.Syscalls))

	if *outFlag != "" {
		if err := d.WriteFile(*outFlag); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "wrote:       %s (%d bytes)\n", *outFlag, d.Size())
	}

	status := 0
	if err := d.Validate(); err != nil {
		fmt.Fprintf(errOut, "demoinspect: demo decodes but cannot replay: %v\n", err)
		status = 1
	} else {
		fmt.Fprintln(out, "validation:  ok")
	}

	if *statsFlag {
		m := obs.NewMetrics()
		m.Add("demo.events.queue", uint64(len(d.Queue.Ticks)))
		m.Add("demo.events.signal", uint64(len(d.Signals)))
		m.Add("demo.events.async", uint64(len(d.Asyncs)))
		m.Add("demo.events.syscall", uint64(len(d.Syscalls)))
		for section, size := range sizes {
			m.Add("demo.bytes."+section, uint64(size))
		}
		fmt.Fprintln(out, "\nstream metrics:")
		fmt.Fprint(out, m.Dump())
	}

	if *windowFlag != "" {
		from, to, err := demo.ParseTickRange(*windowFlag)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		w := d.Window(from, to)
		fmt.Fprintf(out, "\nwindow %d..%d:\n", w.From, w.To)
		if w.Empty() {
			fmt.Fprintln(out, "  no recorded stream events in window")
		}
		for _, st := range w.Scheduled {
			fmt.Fprintf(out, "  QUEUE  tick %-8d schedule thread %d\n", st.Tick, st.TID)
		}
		for _, s := range w.Signals {
			fmt.Fprintf(out, "  SIGNAL tick %-8d sig %d -> thread %d\n", s.Tick, s.Sig, s.TID)
		}
		for _, a := range w.Asyncs {
			fmt.Fprintf(out, "  ASYNC  tick %-8d %-14s thread %d\n", a.Tick, a.Kind, a.TID)
		}
	}

	if !*verbose {
		return status
	}
	if len(d.Queue.FirstTick) > 0 {
		fmt.Fprintln(out, "\nQUEUE first ticks:")
		var tids []int32
		for tid := range d.Queue.FirstTick {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			fmt.Fprintf(out, "  thread %d first scheduled at tick %d\n", tid, d.Queue.FirstTick[tid])
		}
	}
	if len(d.Signals) > 0 {
		fmt.Fprintln(out, "\nSIGNAL events (tid tick sig):")
		for _, s := range d.Signals {
			fmt.Fprintf(out, "  %d %d %d\n", s.TID, s.Tick, s.Sig)
		}
	}
	if len(d.Asyncs) > 0 {
		fmt.Fprintln(out, "\nASYNC events:")
		for _, a := range d.Asyncs {
			fmt.Fprintf(out, "  tick %-8d %-14s thread %d\n", a.Tick, a.Kind, a.TID)
		}
	}
	if len(d.Syscalls) > 0 {
		fmt.Fprintln(out, "\nSYSCALL records:")
		for i, sc := range d.Syscalls {
			total := 0
			for _, b := range sc.Bufs {
				total += len(b)
			}
			fmt.Fprintf(out, "  #%-6d thread %-3d %-14s ret %-6d errno %-12s %d buf bytes\n",
				i, sc.TID, env.Sys(sc.Kind), sc.Ret, env.Errno(sc.Errno), total)
		}
	}
	return status
}

// runDiff implements -diff: decode both demos, print their tick-aligned
// difference, and return a diff(1)-style exit status.
func runDiff(pathA, pathB string, out, errOut io.Writer) int {
	a, err := demo.ReadFile(pathA)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	b, err := demo.ReadFile(pathB)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	df := demo.Diff(a, b)
	if df.Identical() {
		fmt.Fprintln(out, "demos are identical")
		return 0
	}
	for _, h := range df.Header {
		fmt.Fprintf(out, "header   %s\n", h)
	}
	if df.ScheduleDiverges {
		fmt.Fprintf(out, "schedule first divergent tick %d\n", df.FirstDivergentTick)
	}
	for _, s := range df.SignalsOnlyA {
		fmt.Fprintf(out, "signal   only in A: tick %-8d sig %d -> thread %d\n", s.Tick, s.Sig, s.TID)
	}
	for _, s := range df.SignalsOnlyB {
		fmt.Fprintf(out, "signal   only in B: tick %-8d sig %d -> thread %d\n", s.Tick, s.Sig, s.TID)
	}
	for _, a := range df.AsyncsOnlyA {
		fmt.Fprintf(out, "async    only in A: tick %-8d %-14s thread %d\n", a.Tick, a.Kind, a.TID)
	}
	for _, a := range df.AsyncsOnlyB {
		fmt.Fprintf(out, "async    only in B: tick %-8d %-14s thread %d\n", a.Tick, a.Kind, a.TID)
	}
	if df.SyscallMismatch >= 0 {
		fmt.Fprintf(out, "syscall  first mismatched record #%d\n", df.SyscallMismatch)
	}
	return 1
}
