// Replay checkpoints and the debugger pause/resume protocol.
//
// A Checkpoint is sparse by construction (§4: replay re-executes rather
// than snapshotting memory): it is just the tick counter, the scheduler
// PRNG state, the demo stream cursors, per-thread scheduler state and the
// detector's vector clocks — everything that must converge bit-identically
// when a restarted replay fast-forwards to the same tick. Restoring a
// checkpoint therefore means re-running the program function from tick 0
// with observability suppressed until the checkpoint tick, then verifying
// the captured state matches before continuing.
//
// DebugControl is the rendezvous between a debugger (the controller
// goroutine) and the replay's threads: criticalOp calls beforeOp after
// Wait() activates a thread and before the operation body runs, so a
// paused run is quiesced at a precise point — `completed` critical
// sections done, one activated thread about to execute tick completed+1,
// every other thread parked. Pausing there is safe because ForceReschedule
// is a no-op during replay and the scheduler is not Idle while a thread is
// activated, so neither watchdog interferes, and the wall timeout does not
// count the time the run is held.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/sched"
)

// PendingOp describes the visible operation a paused replay is about to
// execute: its tick (one past the completed count), the thread, the
// operation kind, the object id and the object's debug name. Breakpoint
// predicates match against it at classification time in criticalOp.
type PendingOp struct {
	Tick uint64
	TID  TID
	Kind obs.Kind
	Obj  uint64
	Name string
}

func (p PendingOp) String() string {
	s := fmt.Sprintf("tick %d: t%d %s", p.Tick, p.TID, p.Kind)
	if p.Name != "" {
		s += " " + p.Name
	} else if p.Obj != 0 {
		s += fmt.Sprintf(" obj %#x", p.Obj)
	}
	return s
}

// Breakpoint is a (variable, op-kind, thread) predicate over pending
// visible operations. Zero-valued fields match anything: Var "" matches
// every object, Kind obs.KindNone every kind, TID < 0 every thread.
type Breakpoint struct {
	Var  string
	Kind obs.Kind
	TID  TID
}

// Matches reports whether the pending operation satisfies the predicate.
func (b Breakpoint) Matches(p PendingOp) bool {
	if b.Var != "" && b.Var != p.Name {
		return false
	}
	if b.Kind != obs.KindNone && b.Kind != p.Kind {
		return false
	}
	if b.TID >= 0 && b.TID != p.TID {
		return false
	}
	return true
}

func (b Breakpoint) String() string {
	var parts []string
	if b.Var != "" {
		parts = append(parts, "var="+b.Var)
	}
	if b.Kind != obs.KindNone {
		parts = append(parts, "kind="+b.Kind.String())
	}
	if b.TID >= 0 {
		parts = append(parts, fmt.Sprintf("tid=%d", b.TID))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, " ")
}

// Checkpoint is one sparse replay checkpoint. Everything in it is
// deterministic at a tick boundary under synchronised replay, so two
// captures at the same tick of two replays of the same demo must be equal;
// RestartFrom verification compares them with Equal. (Observable program
// output is deliberately absent: threads emit output from invisible
// regions, so its mid-run interleaving is only softly deterministic.)
type Checkpoint struct {
	// Tick is the number of completed critical sections at capture.
	Tick uint64
	// PRNG is the scheduler PRNG's full state, including the draw count.
	PRNG prng.State
	// Threads is the per-thread scheduler state, in tid order.
	Threads []sched.ThreadState
	// Cursors bookmarks the demo stream offsets.
	Cursors demo.Cursors
	// Clocks renders each thread's vector clock, in tid order.
	Clocks []string
}

// Equal reports bit-identical convergence with o.
func (c Checkpoint) Equal(o Checkpoint) bool {
	return c.Tick == o.Tick && c.PRNG == o.PRNG && c.Cursors == o.Cursors &&
		slices.Equal(c.Threads, o.Threads) && slices.Equal(c.Clocks, o.Clocks)
}

// Diff names the first diverging component between c and o, for the
// verification error a failed restart raises. Empty when equal.
func (c Checkpoint) Diff(o Checkpoint) string {
	switch {
	case c.Tick != o.Tick:
		return fmt.Sprintf("tick: %d vs %d", c.Tick, o.Tick)
	case c.PRNG != o.PRNG:
		return fmt.Sprintf("prng: draws %d state %x vs draws %d state %x",
			c.PRNG.Draws, c.PRNG.S, o.PRNG.Draws, o.PRNG.S)
	case c.Cursors != o.Cursors:
		return fmt.Sprintf("demo cursors: %+v vs %+v", c.Cursors, o.Cursors)
	case !slices.Equal(c.Threads, o.Threads):
		for i := range max(len(c.Threads), len(o.Threads)) {
			var a, b string
			if i < len(c.Threads) {
				a = c.Threads[i].String()
			}
			if i < len(o.Threads) {
				b = o.Threads[i].String()
			}
			if a != b {
				return fmt.Sprintf("thread %d: %q vs %q", i, a, b)
			}
		}
	case !slices.Equal(c.Clocks, o.Clocks):
		for i := range max(len(c.Clocks), len(o.Clocks)) {
			var a, b string
			if i < len(c.Clocks) {
				a = c.Clocks[i]
			}
			if i < len(o.Clocks) {
				b = o.Clocks[i]
			}
			if a != b {
				return fmt.Sprintf("clock t%d: %s vs %s", i, a, b)
			}
		}
	}
	return ""
}

func (c Checkpoint) String() string {
	return fmt.Sprintf("checkpoint@%d (draws %d, %d threads, syscalls %d)",
		c.Tick, c.PRNG.Draws, len(c.Threads), c.Cursors.SyscallsConsumed)
}

// debugMode selects the pause predicate the replay's threads evaluate.
type debugMode int

const (
	// modeRun pauses when the completed-tick count reaches target.
	modeRun debugMode = iota
	// modeThread pauses at the next operation by stepTID.
	modeThread
	// modeBreak pauses when any breakpoint matches the pending operation.
	modeBreak
)

// DebugControl is the debugger rendezvous attached to a replay via
// Options.Debug. One side is the program under test: criticalOp calls
// beforeOp at every visible-op classification point, which records the
// timeline, takes periodic checkpoints, and blocks when the pause
// predicate fires. The other side is the controller: WaitPause blocks
// until the run pauses (or finishes), the Resume* methods set the next
// pause predicate and release the run, and Kill tears the run down.
//
// A DebugControl is bound to exactly one Runtime and must not be reused.
type DebugControl struct {
	mu         sync.Mutex
	pauseCond  *sync.Cond // run → controller: paused or finished
	resumeCond *sync.Cond // controller → run: released
	rt         *Runtime

	mode    debugMode
	target  uint64
	stepTID TID
	breaks  []Breakpoint

	paused  bool
	pending PendingOp

	finished bool
	report   *Report
	runErr   error
	killed   bool

	every    uint64
	cps      []Checkpoint
	observer func(PendingOp)
}

// NewDebugControl returns a DebugControl whose initial predicate never
// fires (the run executes to completion unless a Resume* method is called
// first — callers that want to start paused call ResumeTo before Run).
func NewDebugControl() *DebugControl {
	dc := &DebugControl{target: ^uint64(0), stepTID: sched.NoTID}
	dc.pauseCond = sync.NewCond(&dc.mu)
	dc.resumeCond = sync.NewCond(&dc.mu)
	return dc
}

// SetCheckpointEvery enables periodic checkpoints every n ticks (plus one
// at tick 0 and one at run completion). Must be called before Run.
func (dc *DebugControl) SetCheckpointEvery(n uint64) {
	dc.mu.Lock()
	dc.every = n
	dc.mu.Unlock()
}

// SetObserver installs a callback invoked at every visible-op
// classification point with the pending operation — the debugger's
// timeline recorder. It runs with the control lock held and the run
// quiesced; it must not call back into the DebugControl or the Runtime.
// Must be called before Run.
func (dc *DebugControl) SetObserver(fn func(PendingOp)) {
	dc.mu.Lock()
	dc.observer = fn
	dc.mu.Unlock()
}

// bind attaches the control to its runtime; core.New calls it.
func (dc *DebugControl) bind(rt *Runtime) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.rt != nil {
		return errors.New("core: DebugControl is already bound to a runtime (use a fresh one per run)")
	}
	dc.rt = rt
	return nil
}

// beforeOp is the replay-side hook: called by criticalOp after Wait()
// activated the thread and the operation was classified, before its body
// runs. completed critical sections are done; the pending operation will
// be tick completed+1.
func (dc *DebugControl) beforeOp(rt *Runtime, tid TID, kind obs.Kind, obj uint64, name string) {
	completed := rt.sch.TickCount()
	pend := PendingOp{Tick: completed + 1, TID: tid, Kind: kind, Obj: obj, Name: name}
	dc.mu.Lock()
	if dc.killed {
		dc.mu.Unlock()
		return
	}
	if dc.observer != nil {
		dc.observer(pend)
	}
	if dc.every > 0 && completed%dc.every == 0 &&
		(len(dc.cps) == 0 || dc.cps[len(dc.cps)-1].Tick != completed) {
		dc.cps = append(dc.cps, rt.captureCheckpoint())
	}
	if dc.shouldPauseLocked(completed, pend) {
		dc.paused = true
		dc.pending = pend
		dc.pauseCond.Broadcast()
		for dc.paused && !dc.killed {
			dc.resumeCond.Wait()
		}
	}
	dc.mu.Unlock()
}

func (dc *DebugControl) shouldPauseLocked(completed uint64, pend PendingOp) bool {
	switch dc.mode {
	case modeRun:
		return completed >= dc.target
	case modeThread:
		return pend.TID == dc.stepTID
	case modeBreak:
		for _, b := range dc.breaks {
			if b.Matches(pend) {
				return true
			}
		}
	}
	return false
}

// finish is called by Run when the execution completes; it takes the final
// checkpoint (clean runs only — an aborted run's state is not a tick
// boundary) and releases WaitPause.
func (dc *DebugControl) finish(rt *Runtime, rep *Report) {
	dc.mu.Lock()
	if dc.every > 0 && !dc.killed && rep.Err == nil &&
		(len(dc.cps) == 0 || dc.cps[len(dc.cps)-1].Tick != rep.Ticks) {
		dc.cps = append(dc.cps, rt.captureCheckpoint())
	}
	dc.finished = true
	dc.report = rep
	dc.runErr = rep.Err
	dc.pauseCond.Broadcast()
	dc.mu.Unlock()
}

// PauseInfo is what WaitPause observed: a pause (with the pending
// operation) or run completion (with the report).
type PauseInfo struct {
	Paused   bool
	Finished bool
	Pending  PendingOp
	Report   *Report
	Err      error
}

// WaitPause blocks until the run pauses or finishes.
func (dc *DebugControl) WaitPause() PauseInfo {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for !dc.paused && !dc.finished {
		dc.pauseCond.Wait()
	}
	return PauseInfo{
		Paused: dc.paused, Finished: dc.finished,
		Pending: dc.pending, Report: dc.report, Err: dc.runErr,
	}
}

// ResumeTo releases the run until `target` critical sections have
// completed (the run pauses with tick target+1 pending). Callable before
// the run starts, to make it pause at an initial position.
func (dc *DebugControl) ResumeTo(target uint64) {
	dc.mu.Lock()
	dc.mode, dc.target = modeRun, target
	dc.releaseLocked()
	dc.mu.Unlock()
}

// ResumeThread releases the run until the next operation by tid is
// pending.
func (dc *DebugControl) ResumeThread(tid TID) {
	dc.mu.Lock()
	dc.mode, dc.stepTID = modeThread, tid
	dc.releaseLocked()
	dc.mu.Unlock()
}

// ResumeBreaks releases the run until a breakpoint matches a pending
// operation; with no breakpoints the run executes to completion.
func (dc *DebugControl) ResumeBreaks(bps []Breakpoint) {
	dc.mu.Lock()
	dc.mode, dc.breaks = modeBreak, slices.Clone(bps)
	dc.releaseLocked()
	dc.mu.Unlock()
}

// holding reports whether the run is held at a pause; the watchdog does
// not count that time against the wall timeout.
func (dc *DebugControl) holding() bool {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.paused
}

func (dc *DebugControl) releaseLocked() {
	dc.paused = false
	dc.resumeCond.Broadcast()
}

// Kill tears the run down: the paused thread (if any) is released without
// re-pausing, and the scheduler stops so every thread unwinds at its next
// Wait. The debugger uses it to discard a run before restarting from a
// checkpoint.
func (dc *DebugControl) Kill(cause error) {
	dc.mu.Lock()
	dc.killed = true
	dc.paused = false
	dc.resumeCond.Broadcast()
	rt := dc.rt
	dc.mu.Unlock()
	if rt != nil {
		rt.sch.Stop(cause)
	}
}

// Checkpoints returns the checkpoints taken so far.
func (dc *DebugControl) Checkpoints() []Checkpoint {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return slices.Clone(dc.cps)
}

// CaptureNow captures an on-demand checkpoint. The run must be quiesced —
// paused at a visible-op boundary or finished — for the capture to be a
// meaningful tick-boundary state.
func (dc *DebugControl) CaptureNow() (Checkpoint, error) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if !dc.paused && !dc.finished {
		return Checkpoint{}, errors.New("core: checkpoint capture requires a paused or finished run")
	}
	return dc.rt.captureCheckpoint(), nil
}

// captureCheckpoint assembles a Checkpoint from the quiesced execution.
func (rt *Runtime) captureCheckpoint() Checkpoint {
	// TickCount's scheduler-lock acquire also orders every completed
	// critical section's effects (PRNG draws included) before the reads
	// below, so capturing from the controller goroutine is race-free.
	tick := rt.sch.TickCount()
	cp := Checkpoint{
		Tick:    tick,
		PRNG:    rt.sch.Rand().State(),
		Threads: rt.sch.ThreadStates(),
	}
	if rt.rep != nil {
		cp.Cursors = rt.rep.Cursors()
	}
	rt.detMu.Lock()
	cp.Clocks = rt.det.ClockStrings()
	rt.detMu.Unlock()
	return cp
}

// LockState is one held instrumented mutex, as rendered by the debugger's
// state dump.
type LockState struct {
	ID    uint64
	Name  string
	Owner TID
}

// HeldLocks returns the instrumented mutexes currently held and by whom.
// Only meaningful while the execution is quiesced (paused or finished):
// mutex state mutates inside critical sections, and the scheduler-lock
// acquire below orders every completed section's mutations before the
// reads.
func (rt *Runtime) HeldLocks() []LockState {
	_ = rt.sch.TickCount()
	rt.mu.Lock()
	locks := slices.Clone(rt.locks)
	rt.mu.Unlock()
	var out []LockState
	for _, m := range locks {
		if m.locked {
			out = append(out, LockState{ID: m.id, Name: m.name, Owner: m.owner})
		}
	}
	return out
}
