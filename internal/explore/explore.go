// Package explore is the throughput layer of the find-record-replay
// workflow: it shards independent controlled trials across a bounded
// worker pool, dedupes the failures the trials surface by signature, and
// minimizes one recorded demo per distinct failure so every bug ships as a
// small replayable repro.
//
// Trials come from a pluggable TrialSource (source.go): SeedRotation
// supplies the classic strategy × seed sweep, MutationQueue mutates
// recorded demos from earlier trials and replays them under the tolerant
// replay mode, and WeightedSource interleaves sources deterministically.
// The engine feeds every finished trial's outcome back to the source in
// strict trial-index order, with spec generation running at most
// Config.FeedbackLag trials ahead of feedback delivery — so the sequence
// of Next/Feedback calls the source observes, and hence the whole sweep,
// is a pure function of (program, config), independent of worker count
// and completion order. Each trial owns its own core.Runtime and
// env.World; trials share nothing but the read-only program body and the
// observability instruments.
//
//tsanrec:external exploration harness: runs whole Runtimes to completion
package explore

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Program is the unit under exploration: a named body in the shape the
// litmus suite and the examples already use. Body is called once per
// trial with that trial's private Runtime and must be safe to invoke
// concurrently from multiple trials (litmus bodies are: they close over
// nothing but the Runtime).
type Program struct {
	Name string
	Body func(rt *core.Runtime) func(*core.Thread)
}

// Config parameterises one exploration sweep.
type Config struct {
	// Program is the program under test. Required.
	Program Program
	// Source supplies the trials. Required; most sweeps use a
	// *SeedRotation, optionally composed with a *MutationQueue via
	// NewWeightedSource.
	Source TrialSource
	// Trials is the trial budget (default 128). The sweep also ends early
	// if the source declines with no trials in flight.
	Trials int
	// Workers bounds the pool (default GOMAXPROCS, capped at 8).
	Workers int
	// FeedbackLag bounds how far spec generation runs ahead of in-order
	// feedback delivery (default 8) — it is therefore also the in-flight
	// trial cap, so more than FeedbackLag workers sit idle. It is part of
	// the sweep's deterministic identity: a different lag gives the source
	// a different Next/Feedback interleaving, but for a fixed lag the
	// interleaving never depends on worker count or completion order.
	FeedbackLag int
	// MaxTicks, TrialTimeout and RescheduleQuantum are forwarded to every
	// trial's core.Options (zero keeps the core defaults; negative
	// RescheduleQuantum disables forced rescheduling, which also makes
	// random/PCT/delay trials fully seed-deterministic).
	MaxTicks          uint64
	TrialTimeout      time.Duration
	RescheduleQuantum time.Duration
	// WallBudget stops dispatching new trials once this much real time has
	// elapsed (zero = no wall budget; the trial budget is the only limit).
	WallBudget time.Duration
	// Minimize runs the demo minimizer over each distinct failure.
	// MinimizeBudget bounds the replays spent per failure (default 48).
	Minimize       bool
	MinimizeBudget int
	// RecordDir, when set, streams every fresh trial's recording to
	// RecordDir/trial%06d.demo2 as the trial executes (core.Options
	// .RecordPath), so a trial that wedges or crashes the process still
	// leaves a recoverable prefix behind. Only failing trials keep their
	// files, sealed (core.Options.RecordDiscardPassing): passing trials'
	// files are deleted unsynced. Failure.DemoPath reports the file of
	// each signature's representative trial; duplicates' files stay in
	// the directory unreported. Mutated trials record in memory only
	// (their recorder is the tolerant replayer's). The directory must
	// exist.
	RecordDir string
	// World, if non-nil, supplies a fresh virtual environment per trial;
	// nil lets core derive one from the trial seeds.
	World func() *env.World
	// Trace and Metrics are attached to every trial's runtime and to the
	// engine's own counters. Nil disables either, as everywhere in obs.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
}

// TrialSpec identifies one trial: everything needed to re-run it in
// isolation. Index is assigned by the engine in generation order.
type TrialSpec struct {
	Index     int
	Strategy  demo.Strategy
	Seed1     uint64
	Seed2     uint64
	PCTDepth  int
	PCTLength uint64
	// Mutant, if non-nil, makes this a mutated-demo trial: instead of a
	// fresh recording run, the engine replays Mutant.Demo divergence-
	// tolerantly (core.TolerantReplayOptions). Strategy and seeds mirror
	// the mutant demo's header.
	Mutant *Mutant
}

// Outcome is the deterministic summary of one trial. Duration is wall
// time and is the only field that varies run to run.
type Outcome struct {
	Spec TrialSpec
	// Ran is false when the wall budget expired before the trial was
	// dispatched; all other fields are then zero.
	Ran       bool
	Failed    bool
	Ticks     uint64
	Races     int
	Signature string
	// Diverged reports that a mutated trial's candidate schedule became
	// infeasible mid-replay and the run fell back to the live strategy.
	// Divergence is not a failure.
	Diverged bool
	Duration time.Duration
}

// Failure is one distinct failure signature with its recorded repro.
type Failure struct {
	// Spec is the lowest-indexed trial that produced this signature.
	Spec      TrialSpec
	Signature string
	// Races are the race reports of the representative trial, sorted.
	Races []string
	// Err is the abnormal-termination cause, "" for pure races.
	Err string
	// Duplicates counts later trials that hit the same signature.
	Duplicates int
	// Demo is the representative trial's recording. For a mutated trial
	// this is the tolerant replay's re-recording of what actually executed
	// — strict-replayable by construction, not the mutated candidate.
	Demo *demo.Demo
	// DemoPath is the trial's on-disk streamed recording (set only with
	// Config.RecordDir, and only for fresh trials).
	DemoPath string
	// Ancestor and OpChain record a mutated trial's lineage: the root
	// recording's signature and the operator chain that led here. Empty
	// for fresh trials.
	Ancestor string
	OpChain  []string
	// Minimized is the minimizer's output (== Demo when minimization is
	// off, out of budget, or the original failed to reproduce).
	Minimized *demo.Demo
	// Reproduced reports whether replaying Demo reproduced Signature; the
	// minimizer only shrinks reproducing demos. Always false when
	// minimization is off.
	Reproduced bool
	// MinimizeReplays counts the replays the minimizer spent.
	MinimizeReplays int
}

// Result is one sweep's outcome.
type Result struct {
	Program string
	// Outcomes holds every generated trial slot, indexed by trial index.
	// Slots past the wall budget have Ran == false.
	Outcomes []Outcome
	// Failures holds one entry per distinct signature, ordered by the
	// representative trial index.
	Failures []*Failure
	// Trials counts trials actually run; Failing counts the failing ones
	// before deduplication.
	Trials     int
	Failing    int
	DedupeHits int
	// Mutants counts mutated trials run; DivergedTrials counts those whose
	// candidate schedule proved infeasible somewhere.
	Mutants        int
	DivergedTrials int
	Elapsed        time.Duration
	WallExpired    bool
}

// TrialsPerSec is the sweep's throughput.
func (r *Result) TrialsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Trials) / r.Elapsed.Seconds()
}

// trialDone is one worker's completion report, buffered by the engine
// until its turn in the in-order feedback stream.
type trialDone struct {
	spec    TrialSpec
	outcome Outcome
	payload *trialFailure
	// fbDemo is the trial's recording, passed to the source: a passing
	// trial's fresh recording, or a mutated trial's re-recording.
	fbDemo *demo.Demo
}

// Run executes the sweep: pull specs from the source, dispatch them to
// the pool, feed outcomes back in trial-index order, then dedupe and
// (optionally) minimize. Result is deterministic for a fixed config
// (minus Duration/Elapsed), regardless of worker count.
func Run(cfg Config) (*Result, error) {
	if cfg.Program.Body == nil {
		return nil, errors.New("explore: Config.Program.Body is required")
	}
	if cfg.Source == nil {
		return nil, errors.New("explore: Config.Source is required (use a *SeedRotation)")
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 128
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	if cfg.FeedbackLag <= 0 {
		cfg.FeedbackLag = 8
	}
	if cfg.MinimizeBudget <= 0 {
		cfg.MinimizeBudget = 48
	}

	start := time.Now()
	trialsCtr := cfg.Metrics.Counter("explore.trials")
	mutantsCtr := cfg.Metrics.Counter("explore.mutants")
	divergedCtr := cfg.Metrics.Counter("explore.diverged")
	tickHist := cfg.Metrics.Histogram("explore.trial.ticks")

	specC := make(chan TrialSpec)
	doneC := make(chan trialDone)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range specC {
				out, tf, fbDemo := runTrial(&cfg, spec)
				trialsCtr.Add(1)
				tickHist.Observe(float64(out.Ticks))
				if spec.Mutant != nil {
					mutantsCtr.Add(1)
				}
				if out.Diverged {
					divergedCtr.Add(1)
				}
				doneC <- trialDone{spec: spec, outcome: out, payload: tf, fbDemo: fbDemo}
			}
		}()
	}

	// The engine invariants that make the sweep deterministic:
	//   - specs are generated (Source.Next) only while
	//     generated-delivered < FeedbackLag, so generation never outruns
	//     feedback by more than the lag;
	//   - feedback (Source.Feedback) is delivered strictly in trial-index
	//     order, out-of-order completions parking in buf;
	//   - after every single feedback delivery, generation refills the lag
	//     window before the next delivery.
	// Together these pin the exact Next/Feedback interleaving the source
	// observes, whatever the workers do.
	var (
		outcomes  []Outcome
		payloads  []*trialFailure
		queue     []TrialSpec // generated, not yet dispatched
		generated int
		delivered int
		expired   bool
	)
	fill := func() {
		for !expired && generated < cfg.Trials && generated-delivered < cfg.FeedbackLag {
			spec, ok := cfg.Source.Next()
			if !ok {
				// The source declined; it may recover after more feedback,
				// so this is only terminal once nothing is in flight.
				return
			}
			spec.Index = generated
			queue = append(queue, spec)
			outcomes = append(outcomes, Outcome{Spec: spec})
			payloads = append(payloads, nil)
			generated++
		}
	}
	buf := make(map[int]trialDone)
	for {
		if cfg.WallBudget > 0 && !expired && time.Since(start) > cfg.WallBudget {
			expired = true
			// Undispatched specs never run: their slots keep Ran == false
			// and their feedback is an empty could-not-run report.
			for _, sp := range queue {
				buf[sp.Index] = trialDone{spec: sp, outcome: Outcome{Spec: sp}}
			}
			queue = nil
		}
		fill()
		if delivered == generated {
			break
		}
		if len(queue) > 0 {
			select {
			case specC <- queue[0]:
				queue = queue[1:]
			case d := <-doneC:
				buf[d.spec.Index] = d
			}
		} else if _, ok := buf[delivered]; !ok {
			// Slot delivered is neither queued nor buffered, so its trial
			// is in flight. A buffered slot (an unrun one after the wall
			// budget expired) is delivered below without waiting.
			d := <-doneC
			buf[d.spec.Index] = d
		}
		for {
			d, ok := buf[delivered]
			if !ok {
				break
			}
			delete(buf, delivered)
			outcomes[delivered] = d.outcome
			payloads[delivered] = d.payload
			cfg.Source.Feedback(Feedback{
				Spec:      d.spec,
				Failed:    d.outcome.Failed,
				Signature: d.outcome.Signature,
				Demo:      d.fbDemo,
				Diverged:  d.outcome.Diverged,
			})
			delivered++
			fill()
		}
	}
	close(specC)
	wg.Wait()

	res := &Result{
		Program:     cfg.Program.Name,
		Outcomes:    outcomes,
		WallExpired: expired,
	}
	bySig := make(map[string]*Failure)
	for i := range outcomes {
		if !outcomes[i].Ran {
			continue
		}
		res.Trials++
		if outcomes[i].Spec.Mutant != nil {
			res.Mutants++
		}
		if outcomes[i].Diverged {
			res.DivergedTrials++
		}
		p := payloads[i]
		if p == nil {
			continue
		}
		res.Failing++
		if rep := bySig[p.signature]; rep != nil {
			rep.Duplicates++
			res.DedupeHits++
			continue
		}
		f := &Failure{
			Spec:      outcomes[i].Spec,
			Signature: p.signature,
			Races:     p.races,
			Err:       p.errText,
			Demo:      p.demo,
			DemoPath:  p.demoPath,
			Ancestor:  p.ancestor,
			OpChain:   p.opChain,
			Minimized: p.demo,
		}
		bySig[p.signature] = f
		res.Failures = append(res.Failures, f)
	}
	cfg.Metrics.Add("explore.failing", uint64(res.Failing))
	cfg.Metrics.Add("explore.dedupe.hits", uint64(res.DedupeHits))

	if cfg.Minimize {
		// Minimization replays are trials too; reuse the pool bound.
		sem := make(chan struct{}, cfg.Workers)
		var mwg sync.WaitGroup
		for _, f := range res.Failures {
			if f.Demo == nil {
				continue
			}
			mwg.Add(1)
			sem <- struct{}{}
			go func(f *Failure) {
				defer mwg.Done()
				defer func() { <-sem }()
				minimizeFailure(&cfg, f)
			}(f)
		}
		mwg.Wait()
	}

	res.Elapsed = time.Since(start)
	cfg.Metrics.Observe("explore.trials_per_sec", res.TrialsPerSec())
	return res, nil
}

// trialFailure is the failure payload a worker hands the dedupe pass.
type trialFailure struct {
	signature string
	races     []string
	errText   string
	demo      *demo.Demo
	demoPath  string
	ancestor  string
	opChain   []string
}

// trialOptions is the one place trial knobs map onto core.Options, shared
// by the recording trials and the minimizer's replays.
func trialOptions(cfg *Config, base core.Options) core.Options {
	base.MaxTicks = cfg.MaxTicks
	base.WallTimeout = cfg.TrialTimeout
	base.RescheduleQuantum = cfg.RescheduleQuantum
	base.Trace = cfg.Trace
	base.Metrics = cfg.Metrics
	if cfg.World != nil {
		base.World = cfg.World()
	}
	return base
}

func runTrial(cfg *Config, spec TrialSpec) (Outcome, *trialFailure, *demo.Demo) {
	t0 := time.Now()
	var opts core.Options
	if m := spec.Mutant; m != nil {
		// Mutated trial: replay the candidate tolerantly, re-recording what
		// actually executes. The report's Demo is the new recording.
		opts = trialOptions(cfg, core.TolerantReplayOptions(m.Demo))
	} else {
		opts = trialOptions(cfg, core.RecordOptions(spec.Strategy, spec.Seed1, spec.Seed2))
		opts.PCTDepth = spec.PCTDepth
		opts.PCTLength = spec.PCTLength
		if cfg.RecordDir != "" {
			opts.RecordPath = filepath.Join(cfg.RecordDir, fmt.Sprintf("trial%06d.demo2", spec.Index))
			opts.RecordDiscardPassing = true
		}
	}
	rt, err := core.New(opts)
	if err != nil {
		// A config-level error (bad PCT params, etc.) counts as a failing
		// trial with no demo, so the sweep surfaces it instead of dying.
		out := Outcome{Spec: spec, Ran: true, Failed: true,
			Signature: "config:" + err.Error(), Duration: time.Since(t0)}
		return out, &trialFailure{signature: out.Signature, errText: err.Error()}, nil
	}
	rep, _ := rt.Run(cfg.Program.Body(rt))
	out := Outcome{
		Spec:     spec,
		Ran:      true,
		Ticks:    rep.Ticks,
		Races:    rep.RaceCount(),
		Diverged: rep.Diverged != nil,
		Duration: time.Since(t0),
	}
	if !rep.Failed() {
		return out, nil, rep.Demo
	}
	out.Failed = true
	out.Signature = signatureOf(rep)
	tf := &trialFailure{signature: out.Signature, demo: rep.Demo, demoPath: rep.DemoPath}
	if m := spec.Mutant; m != nil {
		tf.ancestor = m.Ancestor
		tf.opChain = m.Ops
	}
	for _, r := range rep.Races {
		tf.races = append(tf.races, r.String())
	}
	sort.Strings(tf.races)
	if rep.Err != nil {
		tf.errText = rep.Err.Error()
	}
	return out, tf, rep.Demo
}

// signatureOf canonicalises a report into a dedupe key. Race keys drop
// the epochs (they vary per seed for the same bug) but keep location,
// access kinds and thread ids; abnormal terminations are classified by
// kind so that, say, every deadlock of the same thread set collapses into
// one corpus entry.
func signatureOf(rep *core.Report) string {
	var parts []string
	for _, r := range rep.Races {
		parts = append(parts, fmt.Sprintf("race:%s:%v@t%v:%v@t%v",
			r.Location, r.First.Kind, r.First.TID, r.Second.Kind, r.Second.TID))
	}
	sort.Strings(parts)
	if rep.Err != nil {
		parts = append(parts, classifyErr(rep.Err))
	}
	if rep.SoftDesync {
		parts = append(parts, "softdesync")
	}
	return strings.Join(parts, "|")
}

func classifyErr(err error) string {
	var de *sched.DeadlockError
	if errors.As(err, &de) {
		blocked := append([]string(nil), de.Blocked...)
		sort.Strings(blocked)
		return "deadlock:[" + strings.Join(blocked, ",") + "]"
	}
	var se *sched.StalledError
	if errors.As(err, &se) {
		return "stalled"
	}
	var dse *demo.DesyncError
	if errors.As(err, &dse) {
		return "desync:" + dse.Stream
	}
	return "error:" + err.Error()
}
