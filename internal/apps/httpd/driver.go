package httpd

import (
	"time"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
)

// Outcome is the result of one server-under-load execution.
type Outcome = modes.Outcome[LoadResult]

// runner runs the server with the Table 2 budget.
func runner(cfg Config) modes.Runner {
	return modes.Runner{
		Body:    func(rt *core.Runtime) func(*core.Thread) { return Server(rt, cfg) },
		Wall:    120 * time.Second,
		Ticks:   200_000_000,
		Trace:   cfg.Trace,
		Metrics: cfg.Metrics,
	}
}

// RunExperiment runs the server under the named mode while the ab-model
// load generator issues `requests` across `concurrency` external clients,
// then delivers SIGTERM and waits for the server to drain — the Table 2
// measurement procedure.
func RunExperiment(cfg Config, mode string, seed uint64, reportRaces bool, requests, concurrency int) Outcome {
	opts, err := modes.Options(mode, seed, reportRaces)
	if err != nil {
		return Outcome{Err: err}
	}
	world := env.NewWorld(seed)
	opts.World = world
	return modes.Serve(runner(cfg), opts, func() LoadResult {
		return RunLoad(world, cfg.Port, requests, concurrency, 20*time.Second)
	})
}

// Replay re-executes a recorded server run offline: no load generator, no
// live network — every recorded syscall result comes from the demo, the
// debugging workflow §2 motivates ("repeatedly replay the execution
// without having to connect to a real server").
func Replay(cfg Config, d *demo.Demo, reportRaces bool) Outcome {
	return modes.Replay[LoadResult](runner(cfg), d, reportRaces)
}
