package main

import (
	"runtime"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/apps/parsec"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/prng"
)

// parsecWorkload runs the five PARSEC-model kernels with nproc threads at
// a fixed scale: native, then queue, then queue+rec in memory, then a
// strict replay of each recording.
type parsecWorkload struct {
	c *config
}

func newParsec(c *config) workload { return &parsecWorkload{c: c} }

func (w *parsecWorkload) shape() shape {
	return shape{threads: w.c.procs + 1, strategy: demo.StrategyQueue}
}

func (w *parsecWorkload) close() {}

// setup warms the kernels up: one recorded round at scale 1.
func (w *parsecWorkload) setup() error {
	for _, k := range parsec.Benchmarks {
		opts, err := modes.Options("queue+rec", w.c.seed, true)
		if err != nil {
			return err
		}
		if _, rep, err := parsec.RunOnce(k, opts, w.c.procs, 1); err != nil {
			return err
		} else if rep.Err != nil {
			return rep.Err
		}
	}
	return nil
}

func (w *parsecWorkload) unit(k int, tr *tracing) unitOut {
	var u unitOut
	seed, _ := prng.Derive(w.c.seed, uint64(k)+1)
	// run executes one kernel and checks its report; nil means it failed.
	run := func(kernel parsec.Benchmark, mode string, opts core.Options) (*core.Report, time.Duration) {
		if tr != nil && !opts.Uncontrolled {
			opts.Trace, opts.Metrics = tr.runObs()
		}
		sp := tr.begin(kernel.Name+"/"+mode, "core", -1)
		d, rep, err := parsec.RunOnce(kernel, opts, w.c.procs, w.c.size.scale)
		tr.end(sp)
		switch {
		case err != nil:
			u.fail("%s/%s: %v", kernel.Name, mode, err)
			return nil, d
		case rep.Err != nil:
			u.fail("%s/%s: %v", kernel.Name, mode, rep.Err)
			return nil, d
		case rep.SoftDesync:
			u.fail("%s/%s: soft desync", kernel.Name, mode)
			return nil, d
		}
		if !opts.Uncontrolled {
			tr.checkRun(kernel.Name+"/"+mode, rep, false)
		}
		return rep, d
	}

	walls := make(map[string]time.Duration)
	recs := make([]*core.Report, len(parsec.Benchmarks))
	var cpu0 time.Duration
	for _, mode := range []string{"native", "queue", "queue+rec"} {
		if mode == "queue+rec" {
			cpu0 = cpuTime()
		}
		// The native kernels run on one P. On two they compute in
		// parallel, and their wall time then swings with how much of the
		// second CPU a shared host lends at that moment; the controlled
		// modes run one thread at a time and do not depend on it.
		procs := 0
		if mode == "native" {
			procs = 1
		}
		prev := runtime.GOMAXPROCS(procs)
		t0 := time.Now()
		for i, kernel := range parsec.Benchmarks {
			opts, err := modes.Options(mode, seed, true)
			if err != nil {
				u.fail("%s: %v", mode, err)
				continue
			}
			rep, d := run(kernel, mode, opts)
			if mode == "queue+rec" {
				recs[i] = rep
				tr.trial(d)
			}
		}
		walls[mode] = time.Since(t0)
		runtime.GOMAXPROCS(prev)
	}
	u.recordCPU = cpuTime() - cpu0
	u.native, u.plain, u.record = walls["native"], walls["queue"], walls["queue+rec"]

	var bytes int
	t0 := time.Now()
	for i, kernel := range parsec.Benchmarks {
		rec := recs[i]
		if rec == nil || rec.Demo == nil {
			u.fail("%s: no recording", kernel.Name)
			continue
		}
		u.work++
		bytes += rec.Demo.Size()
		tr.noteRecording(rec.Demo, false, 0)
		d := w.c.corrupt(rec.Demo)
		rep, _ := run(kernel, "replay", core.ReplayOptions(d))
		if rep == nil {
			continue
		}
		if raceSet(rep) != raceSet(rec) {
			u.fail("%s/replay raced on [%s], the recording on [%s]", kernel.Name, raceSet(rep), raceSet(rec))
			continue
		}
		tr.noteReplay(d, rep)
		tr.noteRaces(len(rec.Races))
	}
	u.replay = time.Since(t0)
	if u.work > 0 {
		u.demoBytes = float64(bytes) / u.work
	}
	return u
}
