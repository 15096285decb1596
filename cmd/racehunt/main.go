// Command racehunt sweeps controlled trials over a litmus program until
// data races (or deadlocks) manifest, then ships every distinct failure
// as a small replayable demo — the find-record-replay workflow the
// paper's combination of techniques enables (§1: finding races that arise
// under rare schedules such that the schedule leading to the race can be
// replayed for debugging).
//
// The hunting itself is internal/explore's job: trials shard across a
// worker pool, failures dedupe by signature, and each distinct failure's
// recording is minimized by re-validated replay. racehunt is the flag
// surface plus reporting. Trials that leave threads running when main
// returns are counted and reported; a leak is not a failure.
//
// Usage:
//
//	racehunt [-program ms-queue] [-strategies rnd,pct,delay,queue]
//	         [-trials 256] [-workers 0] [-wall 0] [-seed 1]
//	         [-mutate] [-mutation-budget 0] [-seed-corpus corpus.json]
//	         [-minimize] [-min-budget 48]
//	         [-corpus corpus.json] [-o race.demo] [-verify]
//	         [-trace trace.json] [-metrics] [-record-dir dir]
//
// With -mutate the hunt runs two trial sources side by side: the usual
// strategy × seed rotation, and a mutation queue that perturbs recorded
// demos from earlier trials (swap adjacent schedule ticks, shift or inject
// async deliveries, drop/duplicate signals, truncate-and-extend) and
// replays each candidate divergence-tolerantly. A mutant that fails with a
// fresh signature lands in the corpus like any other failure, carrying its
// lineage (root ancestor plus operator chain).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/explore"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var stratOf = map[string]demo.Strategy{
	"rnd": demo.StrategyRandom, "queue": demo.StrategyQueue,
	"pct": demo.StrategyPCT, "delay": demo.StrategyDelay,
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("racehunt", flag.ContinueOnError)
	fs.SetOutput(errOut)
	programName := fs.String("program", "ms-queue", "litmus program to hunt in")
	strategies := fs.String("strategies", "rnd,pct,delay,queue", "comma-separated strategies to rotate across trials")
	trials := fs.Int("trials", 256, "trial budget")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, capped at 8)")
	wall := fs.Duration("wall", 0, "wall budget; stop dispatching trials after this long (0 = no limit)")
	seed := fs.Uint64("seed", 1, "master seed; per-trial seeds derive from it")
	mutate := fs.Bool("mutate", false, "interleave mutated-demo trials with the seed rotation (schedule fuzzing)")
	mutBudget := fs.Int("mutation-budget", 0, "cap on mutated trials emitted (0 = no cap; requires -mutate)")
	seedCorpus := fs.String("seed-corpus", "", "pre-seed the mutation queue with this corpus file's demos (requires -mutate)")
	minimize := fs.Bool("minimize", true, "minimize each distinct failure's demo by re-validated replay")
	minBudget := fs.Int("min-budget", 48, "replay budget per minimized failure")
	corpusPath := fs.String("corpus", "", "write the JSON corpus of minimized demos to this file")
	out1 := fs.String("o", "", "write the first failure's minimized demo to this file")
	verify := fs.Bool("verify", false, "replay each written demo once more and report the result")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the hunt's tail to this path")
	metricsFlag := fs.Bool("metrics", false, "print the observability metrics table at exit")
	recordDir := fs.String("record-dir", "", "stream every fresh trial's recording to this directory as it runs (crash insurance from its first 25ms flush on; only failing trials' files are kept, sealed; passing trials shorter than one flush never touch the disk)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, ok := litmus.ByName(*programName)
	if !ok {
		fmt.Fprintf(errOut, "unknown program %q; available:", *programName)
		for _, q := range litmus.Programs {
			fmt.Fprintf(errOut, " %s", q.Name)
		}
		fmt.Fprintln(errOut)
		return 2
	}
	var strats []demo.Strategy
	for _, name := range strings.Split(*strategies, ",") {
		strat, ok := stratOf[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(errOut, "unknown strategy %q\n", name)
			return 2
		}
		strats = append(strats, strat)
	}

	if (*mutBudget != 0 || *seedCorpus != "") && !*mutate {
		fmt.Fprintln(errOut, "-mutation-budget and -seed-corpus require -mutate")
		return 2
	}
	rotation := &explore.SeedRotation{MasterSeed: *seed, Strategies: strats}
	var source explore.TrialSource = rotation
	if *mutate {
		mq := &explore.MutationQueue{Seed: *seed, Budget: *mutBudget, AdoptPassing: true}
		if *seedCorpus != "" {
			c, err := explore.ReadCorpusFile(*seedCorpus)
			if err != nil {
				fmt.Fprintln(errOut, err)
				return 1
			}
			if err := mq.SeedCorpus(c); err != nil {
				fmt.Fprintln(errOut, err)
				return 1
			}
		}
		var err error
		source, err = explore.NewWeightedSource(
			[]explore.TrialSource{rotation, mq}, []int{1, 1})
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
	}

	sess := obs.NewSession(*tracePath, *metricsFlag)
	cfg := explore.Config{
		Program:        p,
		Source:         source,
		Trials:         *trials,
		Workers:        *workers,
		WallBudget:     *wall,
		Minimize:       *minimize,
		MinimizeBudget: *minBudget,
		RecordDir:      *recordDir,
		Trace:          sess.Tracer,
		Metrics:        sess.Metrics,
	}
	if *recordDir != "" {
		if err := os.MkdirAll(*recordDir, 0o755); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
	}
	fmt.Fprintf(out, "hunting in %s: %d trials over %s (master seed %d)\n",
		p.Name, cfg.Trials, *strategies, *seed)
	res, err := explore.Run(cfg)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	fmt.Fprintf(out, "ran %d trials in %v (%.0f trials/sec): %d failing, %d distinct, %d deduped\n",
		res.Trials, res.Elapsed.Round(time.Millisecond), res.TrialsPerSec(),
		res.Failing, len(res.Failures), res.DedupeHits)
	if res.Leaking > 0 {
		fmt.Fprintf(out, "leaked threads: %d of %d trials left threads running when main returned\n",
			res.Leaking, res.Trials)
	}
	if *mutate {
		fmt.Fprintf(out, "mutation: %d mutated trials, %d diverged from their candidate schedule\n",
			res.Mutants, res.DivergedTrials)
	}
	if res.WallExpired {
		fmt.Fprintf(out, "wall budget expired after %d trials\n", res.Trials)
	}
	for i, f := range res.Failures {
		fmt.Fprintf(out, "failure %d: trial %d (%s seed %#x), %d duplicates\n",
			i, f.Spec.Index, f.Spec.Strategy, f.Spec.Seed1, f.Duplicates)
		if f.Ancestor != "" {
			fmt.Fprintf(out, "    lineage: %s <- %s\n", strings.Join(f.OpChain, "+"), f.Ancestor)
		}
		for _, r := range f.Races {
			fmt.Fprintf(out, "    %s\n", r)
		}
		if f.Err != "" {
			fmt.Fprintf(out, "    %s\n", f.Err)
		}
		if f.DemoPath != "" {
			fmt.Fprintf(out, "    streamed recording: %s\n", f.DemoPath)
		}
		if *minimize && f.Demo != nil {
			status := "did not reproduce; kept unminimized"
			if f.Reproduced {
				status = fmt.Sprintf("minimized %d -> %d bytes (final tick %d -> %d)",
					f.Demo.Size(), f.Minimized.Size(), f.Demo.FinalTick, f.Minimized.FinalTick)
			}
			fmt.Fprintf(out, "    %s in %d replays\n", status, f.MinimizeReplays)
		}
		if *verify && f.Minimized != nil {
			if msg, ok := verifyDemo(&cfg, f.Minimized); ok {
				fmt.Fprintf(out, "    verify: %s\n", msg)
			} else {
				fmt.Fprintf(out, "    verify FAILED: %s\n", msg)
			}
		}
	}

	if *corpusPath != "" {
		if err := res.Corpus().WriteFile(*corpusPath); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "corpus: %d entries written to %s\n", len(res.Failures), *corpusPath)
	}
	if *out1 != "" {
		if len(res.Failures) == 0 {
			fmt.Fprintf(errOut, "no failure found in %d trials; nothing to write to %s\n", res.Trials, *out1)
			return 1
		}
		d := res.Failures[0].Minimized
		if err := demo.WriteFile(*out1, d); err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "demo written to %s (%d bytes); inspect with demoinspect\n", *out1, d.Size())
	}
	if err := sess.Finish(out); err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	return 0
}

// verifyDemo replays d once with race reporting on and summarises what
// came back, the -verify spot check on every demo racehunt ships.
func verifyDemo(cfg *explore.Config, d *demo.Demo) (string, bool) {
	opts := core.ReplayOptions(d)
	opts.Trace = cfg.Trace
	opts.Metrics = cfg.Metrics
	rt, err := core.New(opts)
	if err != nil {
		return err.Error(), false
	}
	rep, _ := rt.Run(cfg.Program.Body(rt))
	msg := fmt.Sprintf("races=%d softDesync=%v", rep.RaceCount(), rep.SoftDesync)
	if rep.Err != nil {
		msg += " err=" + rep.Err.Error()
	}
	// A failure demo should replay to a failure; a clean replay means the
	// demo no longer pins down the bug.
	return msg, rep.Failed()
}
