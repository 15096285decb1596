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
type Outcome = modes.Outcome[LoadResult]

// runner runs the server with a budget for hours of virtual traffic.
func runner(cfg Config) modes.Runner {
	return modes.Runner{
		Body:    func(rt *core.Runtime) func(*core.Thread) { return Server(rt, cfg) },
		Wall:    300 * time.Second,
		Ticks:   500_000_000,
		Trace:   cfg.Trace,
		Metrics: cfg.Metrics,
	}
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
	return modes.Serve(runner(cfg), opts, func() LoadResult { return RunLoad(world, cfg.Port, spec) })
}

// Replay re-executes a recorded scenario offline: no load generator, no
// virtual-time advancer — every arrival, readiness batch and clock read
// comes back from the demo's syscall stream.
func Replay(cfg Config, d *demo.Demo, reportRaces bool) Outcome {
	return modes.Replay[LoadResult](runner(cfg), d, reportRaces)
}
