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
	"repro/internal/tsan"
)

// Program is the unit under exploration. Body is called once per trial
// with that trial's private Runtime and must be safe to invoke
// concurrently from multiple trials (litmus bodies are: they close over
// nothing but the Runtime).
type Program = core.Program

// Config parameterises one exploration sweep.
type Config struct {
	// Program is the program under test. Required.
	Program Program
	// Source supplies the trials. Required; most sweeps use a
	// *SeedRotation, optionally composed with a *MutationQueue via
	// NewWeightedSource. The workers call it themselves, under the
	// engine's lock: the one that delivers a trial's feedback also
	// refills the lag window, so calls never overlap.
	Source TrialSource
	// Trials is the trial budget (default 128). The sweep also ends early
	// if the source declines with no trials in flight.
	Trials int
	// Workers bounds the pool (default GOMAXPROCS, capped at 8).
	Workers int
	// FeedbackLag bounds how far spec generation runs ahead of in-order
	// feedback delivery (default 8) — it is therefore also the in-flight
	// trial cap, so more than FeedbackLag workers sit idle, and the size of
	// the ring that parks out-of-order completions. It is part of the
	// sweep's deterministic identity: a different lag gives the source a
	// different Next/Feedback interleaving, but for a fixed lag the
	// interleaving never depends on worker count, completion order or
	// which worker happens to make the call.
	FeedbackLag int
	// MaxTicks and RescheduleQuantum are forwarded to every trial's
	// core.Options (zero keeps the core defaults; negative
	// RescheduleQuantum disables forced rescheduling, which also makes
	// random/PCT/delay trials fully seed-deterministic).
	MaxTicks          uint64
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
	// leaves a recoverable prefix behind once it has run for one flush
	// interval (25ms). Only failing trials keep their files, sealed
	// (core.Options.RecordDiscardPassing): a passing trial that ends
	// before its first flush never creates its file, and a longer one's
	// file is deleted unsynced. The metrics counters demo.streams.kept,
	// demo.streams.discarded and demo.streams.spilled count these fates.
	// Failure.DemoPath reports the file of each signature's
	// representative trial; duplicates' files stay in the directory
	// unreported. Mutated trials record in memory only
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
	// Leaked counts the threads still live when main returned
	// (core.Report.Leaked). A leak is not a failure.
	Leaked int
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
	// before deduplication, and Leaking the ones that left threads live
	// when main returned, failing or not.
	Trials     int
	Failing    int
	Leaking    int
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

// trialDone is one worker's completion report, held in the engine's ring
// until its turn in the in-order feedback stream.
type trialDone struct {
	// ready marks a filled ring slot.
	ready   bool
	spec    TrialSpec
	outcome Outcome
	payload *trialFailure
	// fbDemo is the trial's recording, passed to the source: a passing
	// trial's fresh recording, or a mutated trial's re-recording.
	fbDemo *demo.Demo
}

// Run executes the sweep: pull specs from the source, run them on the
// pool, feed outcomes back in trial-index order, then dedupe and
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

	e := &engine{
		cfg:      &cfg,
		start:    time.Now(),
		ring:     make([]trialDone, cfg.FeedbackLag),
		trials:   cfg.Metrics.Counter("explore.trials"),
		mutants:  cfg.Metrics.Counter("explore.mutants"),
		diverged: cfg.Metrics.Counter("explore.diverged"),
		ticks:    cfg.Metrics.Histogram("explore.trial.ticks"),
	}
	e.idle.L = &e.mu
	e.mu.Lock()
	e.fillLocked()
	e.deliverLocked()
	e.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work()
		}()
	}
	wg.Wait()
	outcomes, payloads := e.outcomes, e.payloads

	res := &Result{
		Program:     cfg.Program.Name,
		Outcomes:    outcomes,
		WallExpired: e.expired,
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
		if outcomes[i].Leaked > 0 {
			res.Leaking++
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
			Races:     raceStrings(p.races),
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

	res.Elapsed = time.Since(e.start)
	cfg.Metrics.Observe("explore.trials_per_sec", res.TrialsPerSec())
	return res, nil
}

// engine is one sweep's dispatch state. The workers run the sweep: each,
// holding mu, stores its trial's completion, delivers every completion
// now in index order and takes its next spec, so Source.Next and
// Source.Feedback are called by whichever worker holds mu, one call at a
// time.
//
// The engine invariants that make the sweep deterministic:
//   - specs are generated (Source.Next) only while
//     generated-delivered < FeedbackLag, so generation never outruns
//     feedback by more than the lag;
//   - feedback (Source.Feedback) is delivered strictly in trial-index
//     order, out-of-order completions parking in ring;
//   - after every single feedback delivery, generation refills the lag
//     window before the next delivery.
//
// Together these pin the exact Next/Feedback interleaving the source
// observes, whatever the workers do. Generation happens only at the start
// and after a delivery, so a source that declined is asked again only
// once it has more feedback, never because a worker happened to pass by.
type engine struct {
	cfg   *Config
	start time.Time

	trials, mutants, diverged *obs.Counter
	ticks                     *obs.Histogram

	mu sync.Mutex
	// idle is where workers wait while no spec is queued; its L is &mu.
	idle sync.Cond
	// outcomes and payloads hold one slot per generated trial. The queue is
	// slots [dispatched, generated): generated, their Spec set, not yet
	// taken by a worker.
	outcomes []Outcome
	payloads []*trialFailure
	// ring holds trial i's completion in slot i % FeedbackLag until it is
	// delivered. The undelivered trials [delivered, generated) never
	// number more than FeedbackLag, so no two share a slot.
	ring                             []trialDone
	generated, dispatched, delivered int
	// expired is set once the wall budget ran out; over once every
	// generated trial is delivered and no more will be generated.
	expired, over bool
}

// work is one worker: take a spec, run it outside the lock, hand its
// completion back, until the sweep is over.
func (e *engine) work() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		spec, ok := e.takeLocked()
		if !ok {
			return
		}
		e.mu.Unlock()
		d := e.run(spec)
		e.mu.Lock()
		e.ring[spec.Index%len(e.ring)] = d
		e.deliverLocked()
	}
}

// takeLocked returns the next queued spec, waiting while none is queued,
// or false once the sweep is over. The wall budget is checked before every
// take, so a spec still queued when it expires never runs.
func (e *engine) takeLocked() (TrialSpec, bool) {
	for {
		if e.cfg.WallBudget > 0 && !e.expired && time.Since(e.start) > e.cfg.WallBudget {
			e.expireLocked()
		}
		if e.over {
			return TrialSpec{}, false
		}
		if e.dispatched < e.generated {
			break
		}
		e.idle.Wait()
	}
	spec := e.outcomes[e.dispatched].Spec
	e.dispatched++
	if e.dispatched < e.generated {
		// More is queued: wake one waiting worker, which passes the wake
		// on in turn.
		e.idle.Signal()
	}
	return spec, true
}

// run runs one trial and counts it in the sweep's metrics.
func (e *engine) run(spec TrialSpec) trialDone {
	out, tf, fbDemo := runTrial(e.cfg, spec)
	e.trials.Add(1)
	e.ticks.Observe(float64(out.Ticks))
	if spec.Mutant != nil {
		e.mutants.Add(1)
	}
	if out.Diverged {
		e.diverged.Add(1)
	}
	return trialDone{ready: true, spec: spec, outcome: out, payload: tf, fbDemo: fbDemo}
}

// expireLocked stops dispatch for good. The queued specs never run: their
// slots keep Ran == false and their feedback is an empty could-not-run
// report, delivered in turn.
func (e *engine) expireLocked() {
	e.expired = true
	for ; e.dispatched < e.generated; e.dispatched++ {
		sp := e.outcomes[e.dispatched].Spec
		e.ring[sp.Index%len(e.ring)] = trialDone{ready: true, spec: sp, outcome: Outcome{Spec: sp}}
	}
	e.deliverLocked()
}

// deliverLocked feeds back every completion now in index order, refilling
// the lag window after each one, and ends the sweep once every generated
// trial is delivered: nothing is then queued, running or buffered, and
// the refill generated nothing more.
func (e *engine) deliverLocked() {
	for {
		slot := &e.ring[e.delivered%len(e.ring)]
		if !slot.ready {
			break
		}
		d := *slot
		*slot = trialDone{}
		e.outcomes[e.delivered] = d.outcome
		e.payloads[e.delivered] = d.payload
		e.cfg.Source.Feedback(Feedback{
			Spec:      d.spec,
			Failed:    d.outcome.Failed,
			Signature: d.outcome.Signature,
			Demo:      d.fbDemo,
			Diverged:  d.outcome.Diverged,
		})
		e.delivered++
		e.fillLocked()
	}
	if e.delivered == e.generated {
		e.over = true
		e.idle.Broadcast()
	}
}

// fillLocked generates specs until the lag window is full, the trial
// budget is spent, the wall budget has expired or the source declines.
func (e *engine) fillLocked() {
	cfg := e.cfg
	for !e.expired && e.generated < cfg.Trials && e.generated-e.delivered < cfg.FeedbackLag {
		spec, ok := cfg.Source.Next()
		if !ok {
			// The source declined; it may recover after more feedback,
			// so this is only terminal once nothing is in flight.
			return
		}
		spec.Index = e.generated
		e.outcomes = append(e.outcomes, Outcome{Spec: spec})
		e.payloads = append(e.payloads, nil)
		e.generated++
	}
}

// trialFailure is the failure payload a worker hands the dedupe pass.
type trialFailure struct {
	signature string
	races     []tsan.Report
	errText   string
	demo      *demo.Demo
	demoPath  string
	ancestor  string
	opChain   []string
}

// trialOptions is the one place trial knobs map onto core.Options, shared
// by the recording trials and the minimizer's replays. A fresh trial runs
// under its spec's PCT depth and length, and so do the replays of its demo,
// which does not carry them; a mutant runs under the strategy defaults.
func trialOptions(cfg *Config, spec TrialSpec, base core.Options) core.Options {
	if spec.Mutant == nil {
		base.PCTDepth, base.PCTLength = spec.PCTDepth, spec.PCTLength
	}
	base.MaxTicks = cfg.MaxTicks
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
		opts = trialOptions(cfg, spec, core.TolerantReplayOptions(m.Demo))
	} else {
		opts = trialOptions(cfg, spec, core.RecordOptions(spec.Strategy, spec.Seed1, spec.Seed2))
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
		Leaked:   rep.Leaked,
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
	tf.races = rep.Races
	if rep.Err != nil {
		tf.errText = rep.Err.Error()
	}
	return out, tf, rep.Demo
}

// raceStrings formats a failure's race reports, sorted. The dedupe pass
// calls it once per distinct signature, not once per failing trial.
func raceStrings(races []tsan.Report) []string {
	var out []string
	for _, r := range races {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return out
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
