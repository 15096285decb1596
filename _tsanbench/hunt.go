package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/prng"
)

// huntDeep marks the needle program's deep race in a failure signature.
const huntDeep = "needle.deep"

// huntWorkload sweeps the needle litmus program the way `racehunt -mutate
// -record-dir` does: seed rotation and a mutation queue weighted 1:1,
// minimisation on, every fresh trial streamed into a record directory.
// The reschedule watchdog is off, so each sweep is a pure function of its
// two seeds. Unit k sweeps with seeds derived from (--seed, k): the time
// to the deep race is heavy-tailed (about one sweep in four of 1000
// trials misses it), so the run's campaign of sweeps, not one sweep, is
// what must find it.
type huntWorkload struct {
	c       *config
	litmus  litmus.Program
	program explore.Program
	dir     string
	// toDeep counts trials across the run's sweeps until the first deep
	// failure; foundDeep stops the count.
	toDeep    int
	foundDeep bool
}

func newHunt(c *config) workload {
	p, _ := litmus.ByName("needle")
	return &huntWorkload{c: c, litmus: p, program: explore.Program{Name: p.Name, Body: p.Body}}
}

func (w *huntWorkload) shape() shape {
	return shape{threads: 3, strategy: demo.StrategyRandom, streamed: true}
}

func (w *huntWorkload) sweepConfig(k int, recordDir string) explore.Config {
	s1, s2 := prng.Derive(w.c.seed, uint64(k)+1)
	rot := &explore.SeedRotation{MasterSeed: s1}
	mq := &explore.MutationQueue{Seed: s2}
	src, err := explore.NewWeightedSource([]explore.TrialSource{rot, mq}, []int{1, 1})
	if err != nil {
		panic(err) // two sources, two positive weights
	}
	return explore.Config{
		Program:           w.program,
		Source:            src,
		Trials:            w.c.size.trials,
		Workers:           w.c.procs,
		RescheduleQuantum: -1,
		Minimize:          true,
		RecordDir:         recordDir,
	}
}

func (w *huntWorkload) setup() error {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	dir, err := os.MkdirTemp(w.c.dir, "hunt-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.toDeep, w.foundDeep = 0, false
	// Warm-up: a tenth of a sweep, in memory. A streamed one would mostly
	// time fsync, whose latency drifts with the host's other disk traffic.
	cfg := w.sweepConfig(-1, "")
	cfg.Trials = max(1, cfg.Trials/10)
	_, err = explore.Run(cfg)
	return err
}

func (w *huntWorkload) close() { os.RemoveAll(w.dir) }

func (w *huntWorkload) finish(u *unitOut) {
	if !w.foundDeep {
		u.fail("no %s failure in %d trials over the run's sweeps", huntDeep, w.toDeep)
	}
}

func (w *huntWorkload) unit(k int, tr *tracing) unitOut {
	var u unitOut
	recDir, err := os.MkdirTemp(w.dir, "sweep-")
	if err != nil {
		u.fail("record dir: %v", err)
		return u
	}
	defer os.RemoveAll(recDir)

	// native: one uncontrolled needle run per trial, on the sweep's workers.
	t0 := time.Now()
	if err := w.native(k); err != nil {
		u.fail("native: %v", err)
	}
	u.native = time.Since(t0)

	plainCfg := w.sweepConfig(k, "")
	recCfg := w.sweepConfig(k, recDir)
	if tr != nil {
		plainCfg.Trace, plainCfg.Metrics = tr.runObs()
	}
	plain := w.sweep(plainCfg, "explore.Run(memory)", tr, &u)
	u.plain = plain.wall
	if tr != nil {
		recCfg.Trace, recCfg.Metrics = tr.runObs()
	}
	cpu0 := cpuTime()
	rec := w.sweep(recCfg, "explore.Run(streamed)", tr, &u)
	u.record, u.recordCPU = rec.wall, cpuTime()-cpu0
	if rec.res == nil {
		return u
	}
	res := rec.res
	u.work = float64(res.Trials)
	if plain.res != nil && plain.res.Trials != res.Trials {
		u.fail("in-memory and streamed sweeps ran %d and %d trials", plain.res.Trials, res.Trials)
	}

	if !w.foundDeep {
		for i := range res.Outcomes {
			if o := &res.Outcomes[i]; o.Failed && strings.Contains(o.Signature, huntDeep) {
				w.toDeep += i + 1
				w.foundDeep = true
				break
			}
		}
		if !w.foundDeep {
			w.toDeep += res.Trials
		}
	}

	var bytes int
	for _, f := range res.Failures {
		if f.Demo != nil {
			bytes += f.Demo.Size()
			tr.keepDemo(f.Demo)
		}
	}
	if n := len(res.Failures); n > 0 {
		u.demoBytes = float64(bytes) / float64(n)
	}

	// replay: every minimized failure must strict-replay to its signature.
	t0 = time.Now()
	for _, f := range res.Failures {
		if f.Minimized == nil {
			u.fail("failure %q has no demo", f.Signature)
			continue
		}
		d := w.c.corrupt(f.Minimized)
		sp := tr.begin("replay", "core", -1)
		opts := core.ReplayOptions(d)
		opts.RescheduleQuantum = -1
		if tr != nil {
			opts.Trace, opts.Metrics = tr.runObs()
		}
		rt, err := core.New(opts)
		if err != nil {
			tr.end(sp)
			u.fail("replay of %q: %v", f.Signature, err)
			continue
		}
		rep, _ := rt.Run(w.program.Body(rt))
		tr.end(sp)
		if got := signature(rep); got != f.Signature {
			u.fail("minimized demo of %q replays to %q", f.Signature, got)
			continue
		}
		tr.checkRun("hunt.replay", rep, false)
		tr.noteReplay(d, rep)
		tr.noteRaces(len(rep.Races))
	}
	u.replay = time.Since(t0)
	if tr != nil {
		tr.toDeep = w.toDeep
	}
	return u
}

type sweepOut struct {
	res  *explore.Result
	wall time.Duration
}

func (w *huntWorkload) sweep(cfg explore.Config, name string, tr *tracing, u *unitOut) sweepOut {
	sp := tr.begin(name, "explore", -1)
	t0 := time.Now()
	res, err := explore.Run(cfg)
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		u.fail("%s: %v", name, err)
		return sweepOut{wall: wall}
	}
	for _, f := range res.Failures {
		if strings.HasPrefix(f.Signature, "config:") || strings.Contains(f.Signature, "desync") || strings.Contains(f.Signature, "error:") {
			u.fail("%s: trial %d failed abnormally: %s", name, f.Spec.Index, f.Signature)
		}
	}
	if tr != nil {
		if got := cfg.Metrics.CounterValue("explore.trials"); got != uint64(res.Trials) {
			tr.fail("%s: explore.trials counter %d but Result.Trials %d", name, got, res.Trials)
		}
		// Concurrent trials interleave in the shared ring, so the sweep's
		// events say nothing about switches; the replays below count them.
		tr.cur = nil
		tr.tracer.Reset()
		tr.noteSweep(sp, cfg, res)
	}
	return sweepOut{res: res, wall: wall}
}

// noteSweep lays the sweep's trials out as child spans and counts its work.
func (t *tracing) noteSweep(parent int, cfg explore.Config, res *explore.Result) {
	p := t.spans[parent]
	lanes := make([]time.Duration, cfg.Workers)
	var busy time.Duration
	var ticks uint64
	for i := range lanes {
		lanes[i] = p.Start
	}
	for _, o := range res.Outcomes {
		if !o.Ran {
			continue
		}
		l := 0
		for i := range lanes {
			if lanes[i] < lanes[l] {
				l = i
			}
		}
		t.add("trial", "core", parent, lanes[l], o.Duration)
		lanes[l] += o.Duration
		busy += o.Duration
		ticks += o.Ticks
		t.trial(o.Duration)
	}
	// The trials share the sweep's wall time across the lanes; what they
	// leave uncovered is the engine's own: dispatch, feedback, dedupe and
	// minimisation.
	t.cnt.exploreSelf += max(0, p.End-p.Start-busy/time.Duration(len(lanes)))
	m := cfg.Metrics
	minReplays := int(m.CounterValue("explore.minimize.replays"))
	t.cnt.runs += res.Trials + minReplays
	t.cnt.ticks += opsSum(m)
	t.cnt.mutexOps += opsSum(m, obs.KindMutexLock)
	t.cnt.atomicOps += opsSum(m, obs.KindAtomicLoad, obs.KindAtomicStore, obs.KindAtomicRMW)
	t.cnt.mutants += res.Mutants
	// Fresh trials stream when the sweep has a record dir; mutated trials
	// always record in memory (their recorder is the tolerant replayer's).
	t.cnt.recTicks += ticks
	if cfg.RecordDir != "" {
		t.cnt.streamRecs += res.Trials - res.Mutants
		t.cnt.memRecordings += res.Mutants
	} else {
		t.cnt.memRecordings += res.Trials
	}
	for _, s := range sectionNames {
		t.cnt.sections[s] += int(m.CounterValue("demo.bytes." + s))
	}
	t.sweeps = append(t.sweeps, sweepCounts{trials: res.Trials, mutants: res.Mutants,
		diverged: res.DivergedTrials, minReplays: minReplays})
}

// native runs the needle program uncontrolled once per trial of a sweep,
// spread over the sweep's worker count.
func (w *huntWorkload) native(k int) error {
	n, workers := w.c.size.trials, w.c.procs
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				s, _ := prng.Derive(w.c.seed, uint64(k)<<20|uint64(i))
				opts, _ := modes.Options("native", s, false)
				if r := litmus.RunOnce(w.litmus, opts); r.Err != nil {
					mu.Lock()
					if first == nil {
						first = r.Err
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	return first
}

// signature is explore's failure signature (its signatureOf is
// unexported): race keys without epochs, then the abnormal-termination
// class, then a soft-desync mark.
func signature(rep *core.Report) string {
	var parts []string
	for _, r := range rep.Races {
		parts = append(parts, fmt.Sprintf("race:%s:%v@t%v:%v@t%v",
			r.Location, r.First.Kind, r.First.TID, r.Second.Kind, r.Second.TID))
	}
	sort.Strings(parts)
	if rep.Err != nil {
		parts = append(parts, "error:"+rep.Err.Error())
	}
	if rep.SoftDesync {
		parts = append(parts, "softdesync")
	}
	return strings.Join(parts, "|")
}
