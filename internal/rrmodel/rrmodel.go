// Package rrmodel configures the core runtime as a model of rr, the
// state-of-the-art record-and-replay baseline the paper compares against
// (O'Callahan et al., USENIX ATC 2017; §2, §5).
//
// rr's qualitative profile, per the paper:
//
//   - Execution is sequentialised: only one thread runs at a time, with a
//     priority-based first-come-first-served scheduler and time slices.
//     We model this with the queue strategy plus full sequentialisation of
//     invisible regions (one virtual CPU).
//   - Recording is non-sparse: every syscall result is captured, including
//     file I/O, so rr is robust to memory-layout nondeterminism but pays a
//     constant per-event cost ("the rr results show huge increases due to
//     a constant overhead applied to all programs", §5.1). We model the
//     ptrace-stop cost with a fixed per-event busy-wait.
//   - Device ioctls (the games' GPU-driver traffic) cannot be recorded:
//     rr refuses them, so the SDL games are out of scope (§5.4).
package rrmodel

import (
	"time"

	"repro/internal/core"
	"repro/internal/demo"
)

// PerEventCost is the modelled ptrace trap-stop-resume cost per traced
// syscall; on real hardware this is on the order of several microseconds.
const PerEventCost = 3 * time.Microsecond

// StartupCost is the modelled constant tracer-setup cost per recorded
// execution; the paper's Table 1 shows rr adding roughly half a second to
// every run regardless of length, which on our millisecond-scale substrate
// scales down to a few hundred microseconds.
const StartupCost = 300 * time.Microsecond

// Options returns core options configured as the rr baseline. Race
// detection remains available (the paper's "tsan11 + rr" configuration runs
// tsan11-instrumented binaries under rr); callers set ReportRaces as the
// experiment requires, or DisableRaces for plain "rr".
func Options(seed1, seed2 uint64, record bool) core.Options {
	return core.Options{
		Strategy:         demo.StrategyQueue,
		Seed1:            seed1,
		Seed2:            seed2,
		Record:           record,
		Sequentialize:    true,
		PerEventOverhead: PerEventCost,
		StartupOverhead:  StartupCost,
		Policy:           core.PolicyRR,
	}
}
