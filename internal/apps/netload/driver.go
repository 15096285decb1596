package netload

import (
	"fmt"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
)

// Outcome is the result of one scenario execution.
type Outcome struct {
	Load   LoadResult
	Report *core.Report
	Err    error
}

// Races returns the number of distinct races detected.
func (o Outcome) Races() int {
	if o.Report == nil {
		return 0
	}
	return o.Report.RaceCount()
}

// DemoBytes returns the encoded demo size (0 if not recording).
func (o Outcome) DemoBytes() int {
	if o.Report == nil || o.Report.Demo == nil {
		return 0
	}
	return o.Report.Demo.Size()
}

// RunScenario runs the epoll server under the named mode with virtual time
// on, drives the open-loop load, then delivers SigTerm and drains. With
// recordPath non-empty the mode's recorder streams the demo to that file as
// the run executes (crash-safe, O(1) memory in the run length).
func RunScenario(cfg Config, spec LoadSpec, mode string, seed uint64, reportRaces bool, recordPath string) Outcome {
	opts, err := modes.Options(mode, seed, reportRaces)
	if err != nil {
		return Outcome{Err: err}
	}
	if recordPath != "" {
		if !opts.Record {
			return Outcome{Err: fmt.Errorf("netload: mode %q does not record; use a +rec mode", mode)}
		}
		opts.RecordPath = recordPath
	}
	world := env.NewWorld(seed)
	world.EnableVirtualTime(0)
	opts.World = world
	opts.WallTimeout = 300 * time.Second
	opts.MaxTicks = 500_000_000
	opts.Trace, opts.Metrics = cfg.Trace, cfg.Metrics
	rt, err := core.New(opts)
	if err != nil {
		world.Shutdown() // Run never will: stop the virtual-time advancer
		return Outcome{Err: err}
	}

	type runOut struct {
		rep *core.Report
		err error
	}
	done := make(chan runOut, 1) //tsanrec:external host-side completion channel, outside the recorded execution
	//tsanrec:external host-side driver goroutine running the runtime while the load generator issues traffic
	go func() {
		rep, err := rt.Run(Server(rt, cfg))
		done <- runOut{rep, err}
	}()

	load := RunLoad(world, cfg.Port, spec)
	world.Kill(SigTerm)

	//tsanrec:external host-side drain timeout: a hung server must fail the scenario rather than wedge the harness
	select {
	case out := <-done:
		return Outcome{Load: load, Report: out.rep, Err: out.err}
	case <-time.After(310 * time.Second):
		return Outcome{Load: load, Err: fmt.Errorf("netload: server did not drain after SigTerm")}
	}
}

// Replay re-executes a recorded scenario offline: no load generator, no
// virtual-time advancer — every arrival, readiness batch and clock read
// comes back from the demo's syscall stream.
func Replay(cfg Config, d *demo.Demo, reportRaces bool) Outcome {
	rt, err := core.New(core.Options{
		Strategy:    d.Strategy,
		Replay:      d,
		ReportRaces: reportRaces,
		WallTimeout: 300 * time.Second,
		MaxTicks:    500_000_000,
		Trace:       cfg.Trace,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return Outcome{Err: err}
	}
	rep, err := rt.Run(Server(rt, cfg))
	return Outcome{Report: rep, Err: err}
}
