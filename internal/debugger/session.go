// Package debugger is the time-travel debugging engine over demos: the
// session layer cmd/tsandebug wraps. A Session replays a recorded demo
// under a DebugControl and exposes gdb-flavoured navigation — run-to-tick,
// step, step-thread, reverse-step, reverse-continue, breakpoints — plus
// trace-window and state dumps.
//
// Time travel is replay-based (the rr model): going backwards means
// re-running the program function from tick 0 and fast-forwarding to an
// earlier tick, accelerated by the sparse checkpoints the first pass took
// every N ticks. A restart resumes observability at the checkpoint tick
// and verifies bit-identical convergence — checkpoint state captured by
// the restarted run must equal the first pass's capture — so a divergent
// replay fails loudly instead of silently debugging a different execution.
//
// host-side controller code: the session goroutine drives runs via
// DebugControl and raw channels; it is debugger infrastructure, not a
// program under test.
//
//tsanrec:external debugger session engine: host-side controller state
package debugger

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tsan"
)

// Program is the program under test; each replay calls Body once.
type Program = core.Program

// Options tunes a Session.
type Options struct {
	// CheckpointEvery is the checkpoint interval in ticks (default 64).
	CheckpointEvery uint64
	// TraceRing is the live tracer's ring capacity (default
	// obs.DefaultTracerSize).
	TraceRing int
}

// runTimeout bounds each underlying replay run's wall time. Time a run
// spends held at a pause does not count against it, so it only threatens
// a run that fails to reach its pause target.
const runTimeout = 120 * time.Second

// ErrKilled is the abort cause a Session gives runs it discards (restart,
// Close).
var ErrKilled = errors.New("debugger: run discarded")

// VerifyError reports restart-from-checkpoint divergence: the restarted
// replay's state at the checkpoint tick was not bit-identical to the
// first pass's capture.
type VerifyError struct {
	Tick uint64
	Diff string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("debugger: restart diverged from checkpoint at tick %d: %s", e.Tick, e.Diff)
}

// Session is one time-travel debugging session over a demo. Not safe for
// concurrent use; one controller goroutine drives it.
type Session struct {
	prog  Program
	d     *demo.Demo
	opts  Options
	every uint64

	// First-pass artifacts.
	timeline  []core.PendingOp // timeline[i] is the op that became tick i+1
	cps       []core.Checkpoint
	widx      *tsan.WriteIndex
	report    *core.Report
	finalTick uint64

	// Navigation state: unless the session is freshly closed, cur is a
	// live replay paused with `pos` ticks completed (or finished, when
	// atEnd).
	cur     *liveRun
	pos     uint64
	pending *core.PendingOp
	atEnd   bool

	breaks []core.Breakpoint
	closed bool
}

// liveRun is one underlying replay: the runtime, its control, its gated
// tracer, and the tick tracing was enabled from.
type liveRun struct {
	rt        *core.Runtime
	dc        *core.DebugControl
	tr        *obs.Tracer
	traceFrom uint64 // events with Tick > traceFrom are captured
	done      chan struct{}
}

// New builds a session: it runs the timeline pass — a full replay that
// records the per-tick operation timeline, takes periodic checkpoints,
// indexes write sites — and then positions the session at tick 0.
// The replay itself terminating abnormally (a desynchronising or
// deadlocking demo) is not an error: the session opens over the prefix
// that did replay, with the cause in Info().Err.
func New(prog Program, d *demo.Demo, opts Options) (*Session, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 64
	}
	if opts.TraceRing == 0 {
		opts.TraceRing = obs.DefaultTracerSize
	}
	s := &Session{prog: prog, d: d, opts: opts, every: opts.CheckpointEvery,
		widx: tsan.NewWriteIndex()}

	dc := core.NewDebugControl()
	dc.SetCheckpointEvery(s.every)
	dc.SetObserver(func(p core.PendingOp) {
		if n := uint64(len(s.timeline)); p.Tick == n+1 {
			s.timeline = append(s.timeline, p)
		}
	})
	run, err := s.launch(dc, nil, 0, s.widx)
	if err != nil {
		return nil, err
	}
	info := dc.WaitPause()
	<-run.done
	s.report = info.Report
	s.finalTick = s.report.Ticks
	s.cps = dc.Checkpoints()
	if len(s.cps) == 0 {
		// A replay that aborted before its first visible operation has
		// nothing to debug.
		return nil, fmt.Errorf("debugger: replay recorded no checkpoints (err: %v)", s.report.Err)
	}
	if err := s.restart(0); err != nil {
		return nil, err
	}
	return s, nil
}

// launch starts one replay run. target is pre-set as the pause target
// (the run pauses once that many ticks completed); tracing is suppressed
// until traceFrom (a tracer enabled from the start uses traceFrom 0).
// Passing a nil tracer runs untraced (the timeline pass).
func (s *Session) launch(dc *core.DebugControl, tr *obs.Tracer, traceFrom uint64, widx *tsan.WriteIndex) (*liveRun, error) {
	if tr != nil && traceFrom > 0 {
		// Fast-forward: suppress event capture until the first operation
		// past traceFrom, so a restarted replay resumes tracing exactly at
		// the checkpoint boundary.
		tr.Disable()
		dc.SetObserver(func(p core.PendingOp) {
			if p.Tick > traceFrom {
				tr.Enable()
			}
		})
	}
	opts := core.ReplayOptions(s.d)
	opts.Debug = dc
	opts.WriteIndex = widx
	opts.Trace = tr
	opts.WallTimeout = runTimeout
	rt, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	run := &liveRun{rt: rt, dc: dc, tr: tr, traceFrom: traceFrom, done: make(chan struct{})}
	body := s.prog.Body(rt)
	go func() {
		defer close(run.done)
		_, _ = rt.Run(body)
	}()
	return run, nil
}

// Close discards the session's live run.
func (s *Session) Close() {
	s.killCur()
	s.closed = true
}

func (s *Session) killCur() {
	if s.cur != nil {
		s.cur.dc.Kill(ErrKilled)
		<-s.cur.done
		s.cur = nil
	}
}

// checkpointAtOrBefore returns the latest checkpoint whose tick does not
// exceed target.
func (s *Session) checkpointAtOrBefore(target uint64) core.Checkpoint {
	best := s.cps[0]
	for _, cp := range s.cps[1:] {
		if cp.Tick <= target && cp.Tick > best.Tick {
			best = cp
		}
	}
	return best
}

// restart discards the live run and starts a fresh replay positioned at
// the latest checkpoint at or before target, verifying bit-identical
// convergence with the first pass, then runs forward to target.
func (s *Session) restart(target uint64) error {
	s.killCur()
	cp := s.checkpointAtOrBefore(target)
	dc := core.NewDebugControl()
	dc.ResumeTo(cp.Tick)
	tr := obs.NewTracer(s.opts.TraceRing)
	run, err := s.launch(dc, tr, cp.Tick, nil)
	if err != nil {
		return err
	}
	info := dc.WaitPause()
	if !info.Paused && !info.Finished {
		dc.Kill(ErrKilled)
		return errors.New("debugger: restarted replay neither paused nor finished")
	}
	if info.Finished && cp.Tick < s.finalTick {
		dc.Kill(ErrKilled)
		return fmt.Errorf("debugger: restarted replay finished at tick %d before reaching checkpoint tick %d (err: %v)",
			info.Report.Ticks, cp.Tick, info.Err)
	}
	got, err := dc.CaptureNow()
	if err != nil {
		dc.Kill(ErrKilled)
		return err
	}
	if !got.Equal(cp) {
		dc.Kill(ErrKilled)
		<-run.done
		return &VerifyError{Tick: cp.Tick, Diff: cp.Diff(got)}
	}
	s.cur = run
	s.applyPause(info)
	if target > s.pos && !s.atEnd {
		return s.forward(target)
	}
	return nil
}

// forward resumes the live run until target ticks have completed.
func (s *Session) forward(target uint64) error {
	dc := s.cur.dc
	dc.ResumeTo(target)
	s.applyPause(dc.WaitPause())
	return nil
}

// applyPause folds a pause (or completion) into the session position.
func (s *Session) applyPause(info core.PauseInfo) {
	if info.Paused {
		p := info.Pending
		s.pos = p.Tick - 1
		s.pending = &p
		s.atEnd = false
		return
	}
	s.pos = info.Report.Ticks
	s.pending = nil
	s.atEnd = true
}

// Pos returns the session position: how many ticks of the replay have
// completed.
func (s *Session) Pos() uint64 { return s.pos }

// Pending returns the operation about to execute, nil at end.
func (s *Session) Pending() *core.PendingOp { return s.pending }

// AtEnd reports whether the replay has run to completion.
func (s *Session) AtEnd() bool { return s.atEnd }

// FinalTick returns the replay's final tick count.
func (s *Session) FinalTick() uint64 { return s.finalTick }

// Races returns the data races the replay detects.
func (s *Session) Races() []tsan.Report { return s.report.Races }

// Report returns the first pass's full execution report.
func (s *Session) Report() *core.Report { return s.report }

// Checkpoints returns the first pass's checkpoints.
func (s *Session) Checkpoints() []core.Checkpoint { return s.cps }

// Timeline returns the op that became tick t (1-based), if recorded.
func (s *Session) Timeline(t uint64) (core.PendingOp, bool) {
	if t == 0 || t > uint64(len(s.timeline)) {
		return core.PendingOp{}, false
	}
	return s.timeline[t-1], true
}

// WriteIndex exposes the write-site index (reverse-continue targets).
func (s *Session) WriteIndex() *tsan.WriteIndex { return s.widx }

// RunToTick positions the session at tick target (clamped to the final
// tick): forward by resuming the live run, backward by restarting from
// the best checkpoint.
func (s *Session) RunToTick(target uint64) error {
	if target > s.finalTick {
		target = s.finalTick
	}
	switch {
	case target == s.pos:
		return nil
	case target > s.pos && !s.atEnd:
		return s.forward(target)
	default:
		return s.restart(target)
	}
}

// Step advances by n visible operations (default semantics: n >= 1).
func (s *Session) Step(n uint64) error {
	if s.atEnd {
		return errors.New("debugger: already at end of replay")
	}
	return s.RunToTick(s.pos + n)
}

// StepThread advances until the next operation by tid is pending.
func (s *Session) StepThread(tid sched.TID) error {
	if s.atEnd {
		return errors.New("debugger: already at end of replay")
	}
	dc := s.cur.dc
	dc.ResumeThread(tid)
	s.applyPause(dc.WaitPause())
	return nil
}

// ReverseStep moves n visible operations backwards.
func (s *Session) ReverseStep(n uint64) error {
	if s.pos == 0 {
		return errors.New("debugger: already at tick 0")
	}
	if n > s.pos {
		n = s.pos
	}
	return s.RunToTick(s.pos - n)
}

// ReverseContinue jumps backwards to the last write of the named variable
// before the current position. An empty name targets the raced variable
// the replay's first race report names — the forensics-driven default.
// It returns the write site landed on.
func (s *Session) ReverseContinue(name string) (tsan.WriteSite, string, error) {
	if name == "" {
		if len(s.report.Races) == 0 {
			return tsan.WriteSite{}, "", errors.New("debugger: replay reports no data races; name a variable explicitly")
		}
		name = s.report.Races[0].Location
	}
	site, ok := s.widx.LastWriteBefore(name, s.pos)
	if !ok {
		return tsan.WriteSite{}, name, fmt.Errorf("debugger: no recorded write to %q before tick %d", name, s.pos)
	}
	if err := s.RunToTick(site.Tick); err != nil {
		return site, name, err
	}
	return site, name, nil
}

// Continue resumes until a breakpoint matches a pending operation, or the
// replay completes. It reports whether a breakpoint was hit.
func (s *Session) Continue() (bool, error) {
	if s.atEnd {
		return false, errors.New("debugger: already at end of replay")
	}
	if len(s.breaks) == 0 {
		return false, s.RunToTick(s.finalTick)
	}
	dc := s.cur.dc
	dc.ResumeBreaks(s.breaks)
	s.applyPause(dc.WaitPause())
	return !s.atEnd, nil
}

// AddBreak installs a breakpoint, returning its index.
func (s *Session) AddBreak(b core.Breakpoint) int {
	s.breaks = append(s.breaks, b)
	return len(s.breaks) - 1
}

// Breaks returns the installed breakpoints.
func (s *Session) Breaks() []core.Breakpoint { return s.breaks }

// DeleteBreak removes breakpoint i.
func (s *Session) DeleteBreak(i int) error {
	if i < 0 || i >= len(s.breaks) {
		return fmt.Errorf("debugger: no breakpoint %d", i)
	}
	s.breaks = append(s.breaks[:i], s.breaks[i+1:]...)
	return nil
}

// TraceResult is a tick-windowed trace dump: the obs events emitted in
// [From, To], whether part of the window was evicted from the capture
// ring, and the demo streams' view of the same ticks.
type TraceResult struct {
	From, To uint64
	Events   []obs.Event
	Evicted  bool
	Demo     demo.TickWindow
}

// Trace collects the events of ticks [from, to]. If the live run's gated
// tracer covers the window it is served from the ring; otherwise a
// dedicated collection replay runs to `to` with tracing enabled from
// `from` and is discarded afterwards, leaving the session position
// untouched.
func (s *Session) Trace(from, to uint64) (*TraceResult, error) {
	if from < 1 {
		from = 1
	}
	if to > s.finalTick {
		to = s.finalTick
	}
	if from > to {
		return nil, fmt.Errorf("debugger: empty tick window %d..%d", from, to)
	}
	res := &TraceResult{From: from, To: to, Demo: s.d.Window(from, to)}
	if s.cur != nil && from > s.cur.traceFrom && to <= s.pos {
		evs, evicted := s.cur.tr.Window(from, to)
		if !evicted {
			res.Events = evs
			return res, nil
		}
	}
	// Dedicated collection run: pause (or finish) just past `to`, slice
	// the ring, discard.
	size := int(to-from+2) * 8
	if size < 1024 {
		size = 1024
	}
	if size > 1<<20 {
		size = 1 << 20
	}
	dc := core.NewDebugControl()
	dc.ResumeTo(to)
	tr := obs.NewTracer(size)
	run, err := s.launch(dc, tr, from-1, nil)
	if err != nil {
		return nil, err
	}
	info := dc.WaitPause()
	if !info.Paused && !info.Finished {
		dc.Kill(ErrKilled)
		return nil, errors.New("debugger: trace replay neither paused nor finished")
	}
	res.Events, res.Evicted = tr.Window(from, to)
	dc.Kill(ErrKilled)
	<-run.done
	return res, nil
}

// StateDump is the debugger's state command: the position, the pending
// operation, per-thread scheduler state, held locks, vector clocks and
// demo cursors — all captured from the quiesced live run.
type StateDump struct {
	Pos     uint64
	Pending *core.PendingOp
	AtEnd   bool
	Threads []sched.ThreadState
	Locks   []core.LockState
	Clocks  []string
	Cursors demo.Cursors
}

// State captures the current state dump.
func (s *Session) State() (*StateDump, error) {
	if s.cur == nil {
		return nil, errors.New("debugger: no live replay")
	}
	cp, err := s.cur.dc.CaptureNow()
	if err != nil {
		return nil, err
	}
	return &StateDump{
		Pos: s.pos, Pending: s.pending, AtEnd: s.atEnd,
		Threads: cp.Threads, Clocks: cp.Clocks, Cursors: cp.Cursors,
		Locks: s.cur.rt.HeldLocks(),
	}, nil
}

// VerifyCheckpoint restarts a fresh replay from checkpoint i and verifies
// bit-identical convergence, without disturbing the session position. It
// is the RestartFrom verification path exposed for tests and the `verify`
// command.
func (s *Session) VerifyCheckpoint(i int) error {
	if i < 0 || i >= len(s.cps) {
		return fmt.Errorf("debugger: no checkpoint %d", i)
	}
	cp := s.cps[i]
	dc := core.NewDebugControl()
	dc.ResumeTo(cp.Tick)
	run, err := s.launch(dc, nil, 0, nil)
	if err != nil {
		return err
	}
	defer func() {
		dc.Kill(ErrKilled)
		<-run.done
	}()
	info := dc.WaitPause()
	if info.Finished && cp.Tick < s.finalTick {
		return fmt.Errorf("debugger: verification replay finished at tick %d before checkpoint tick %d",
			info.Report.Ticks, cp.Tick)
	}
	got, err := dc.CaptureNow()
	if err != nil {
		return err
	}
	if !got.Equal(cp) {
		return &VerifyError{Tick: cp.Tick, Diff: cp.Diff(got)}
	}
	return nil
}
