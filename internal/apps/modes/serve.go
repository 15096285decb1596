package modes

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
)

// SigTerm is the signal Serve delivers once the load is done. Every server
// it runs drains and exits on it.
const SigTerm int32 = 15

// Runner runs one server program the way every server experiment does:
// live under a host-side load generator until SigTerm, or offline from a
// demo.
type Runner struct {
	// Body returns the server's main function for a runtime.
	Body func(*core.Runtime) func(*core.Thread)
	// Wall and Ticks are each run's WallTimeout and MaxTicks.
	Wall  time.Duration
	Ticks uint64
	// Trace and Metrics are attached to every run.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
}

// Outcome is one server run: what the load generator saw, the run's
// report, and the error that ended it.
type Outcome[L any] struct {
	Load   L
	Report *core.Report
	Err    error
}

// Races returns the number of distinct races detected.
func (o Outcome[L]) Races() int {
	if o.Report == nil {
		return 0
	}
	return o.Report.RaceCount()
}

// DemoBytes returns the encoded demo size (0 if not recording).
func (o Outcome[L]) DemoBytes() int {
	if o.Report == nil || o.Report.Demo == nil {
		return 0
	}
	return o.Report.Demo.Size()
}

func (r Runner) options(opts core.Options) core.Options {
	opts.WallTimeout, opts.MaxTicks = r.Wall, r.Ticks
	opts.Trace, opts.Metrics = r.Trace, r.Metrics
	return opts
}

// Serve runs the server under opts on opts.World while load drives it
// from the host, then delivers SigTerm and waits for the server to drain.
// The run's wall timeout ends a server that does not drain; should Run
// not return within another r.Wall of the signal, Serve fails the run
// rather than wedging the harness.
func Serve[L any](r Runner, opts core.Options, load func() L) Outcome[L] {
	world := opts.World
	rt, err := core.New(r.options(opts))
	if err != nil {
		world.Shutdown() // Run never will: stop the world and any virtual-time advancer
		return Outcome[L]{Err: err}
	}
	// The bridge between the runtime, whose Run must overlap the live load
	// generator, and the external world is itself external: its goroutine
	// and channel exist outside the recorded execution.
	done := make(chan Outcome[L], 1) //tsanrec:external host-side completion channel, outside the recorded execution
	//tsanrec:external host-side driver goroutine running the runtime while the load generator issues traffic
	go func() {
		rep, err := rt.Run(r.Body(rt))
		done <- Outcome[L]{Report: rep, Err: err}
	}()

	l := load()
	world.Kill(SigTerm)

	//tsanrec:external host-side drain timeout: a hung server must fail the run rather than wedge the harness
	select {
	case out := <-done:
		out.Load = l
		return out
	case <-time.After(r.Wall):
		return Outcome[L]{Load: l, Err: fmt.Errorf("modes: server did not drain within %v of SigTerm", r.Wall)}
	}
}

// Replay re-executes a recorded server run offline: no load generator and
// no live network, since every recorded syscall result comes from the demo.
func Replay[L any](r Runner, d *demo.Demo, reportRaces bool) Outcome[L] {
	rt, err := core.New(r.options(core.Options{Strategy: d.Strategy, Replay: d, ReportRaces: reportRaces}))
	if err != nil {
		return Outcome[L]{Err: err}
	}
	rep, err := rt.Run(r.Body(rt))
	return Outcome[L]{Report: rep, Err: err}
}
