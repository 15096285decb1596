package demo

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ReplayMode is a Replayer's policy: what a recorded constraint the run
// cannot enforce does (Replayer.Desync).
type ReplayMode uint8

const (
	// ReplayStrict is the paper's contract: every recorded constraint must
	// be satisfied exactly, and any mismatch is a hard desynchronisation
	// (*DesyncError). The zero value, so existing call sites keep strict
	// semantics.
	ReplayStrict ReplayMode = iota
	// ReplayTolerantRecord enforces each recorded decision only while it
	// is feasible (the demanded thread runnable, the demanded syscall
	// issued). The first infeasible constraint marks the replay diverged:
	// the remaining streams are abandoned and the live strategy takes
	// over, surfacing a Diverged outcome instead of a DesyncError. The
	// caller runs a Recorder alongside the Replayer from tick 1, so the
	// resulting demo captures the replayed prefix and the live suffix as
	// one strict-replayable recording.
	ReplayTolerantRecord
)

func (m ReplayMode) String() string {
	switch m {
	case ReplayStrict:
		return "strict"
	case ReplayTolerantRecord:
		return "tolerant-record"
	default:
		return fmt.Sprintf("ReplayMode(%d)", uint8(m))
	}
}

// Diverged marks the point where a tolerant replay left the demo's
// constraints and fell back to the live strategy.
type Diverged struct {
	// Tick is the first tick the demo no longer dictated.
	Tick uint64
	// Reason names the infeasible constraint.
	Reason string
}

func (d *Diverged) String() string {
	return fmt.Sprintf("diverged at tick %d: %s", d.Tick, d.Reason)
}

// Replayer exposes a Demo's constraint streams as consumable cursors for
// the scheduler and syscall layer, and owns the replay policy: every
// constraint the run cannot enforce is handed to Desync, whose verdict the
// caller follows. All methods are safe for concurrent use.
type Replayer struct {
	mu   sync.Mutex
	d    *Demo
	mode ReplayMode

	// first is the first constraint handed to Desync. divFlag records that
	// a tolerant replay diverged there, atomically, so the per-tick stream
	// accessors can cut off without the mutex. observe, if set, sees first,
	// called without the mutex held.
	first   *DesyncError
	divFlag atomic.Bool
	observe func(*DesyncError)

	// end is the FinalTick of a Truncated demo, where its replay ends; 0
	// for a complete demo.
	end uint64

	// schedule[t] is the thread that must run critical section t
	// (1-based), reconstructed from the queue stream. Nil for the random
	// strategy, whose schedule is re-derived from the seeds.
	schedule []int32

	signalAt   map[sigKey][]int32
	asyncAt    map[uint64][]AsyncEvent
	sysCursor  int
	outputHash uint64
	// hashInited mirrors the Recorder's explicit hash-state tracking: a
	// mid-stream FNV state of 0 must not be mistaken for "no output yet".
	hashInited bool

	// sigsLeft and asyncsLeft count the unconsumed entries of the SIGNAL
	// and ASYNC streams. SignalsAt/AsyncsAt run on every Tick of a replay,
	// and for any workload without signals the streams are empty (or drain
	// early): the counters let those calls return without the mutex or the
	// map lookups.
	sigsLeft   atomic.Int64
	asyncsLeft atomic.Int64
}

type sigKey struct {
	tid  int32
	tick uint64
}

// NewReplayer builds a Replayer for d running under the given mode. It
// validates the queue stream's internal consistency up front.
func NewReplayer(d *Demo, mode ReplayMode) (*Replayer, error) {
	if mode > ReplayTolerantRecord {
		return nil, fmt.Errorf("demo: unknown replay mode %d", uint8(mode))
	}
	r := &Replayer{d: d, mode: mode,
		signalAt: make(map[sigKey][]int32),
		asyncAt:  make(map[uint64][]AsyncEvent),
	}
	if d.Truncated {
		r.end = d.FinalTick
	}
	for _, s := range d.Signals {
		k := sigKey{s.TID, s.Tick}
		r.signalAt[k] = append(r.signalAt[k], s.Sig)
	}
	for _, a := range d.Asyncs {
		r.asyncAt[a.Tick] = append(r.asyncAt[a.Tick], a)
	}
	r.sigsLeft.Store(int64(len(d.Signals)))
	r.asyncsLeft.Store(int64(len(d.Asyncs)))
	if d.Strategy == StrategyQueue {
		schedule, err := d.queueSchedule()
		if err != nil {
			return nil, err
		}
		r.schedule = schedule
	}
	return r, nil
}

// queueSchedule reconstructs the queue strategy's per-tick schedule from
// the QUEUE stream's first-tick map and delta chains: schedule[t] is the
// thread that must run critical section t (1-based). Shared by the
// Replayer and by tick-window slicing (Window / demoinspect -window).
func (d *Demo) queueSchedule() ([]int32, error) {
	// Every tick 1..FinalTick must be covered by the schedule chains,
	// and each chain step consumes either a FirstTick entry or a delta
	// slot, so a FinalTick beyond their sum cannot be satisfied. Checking
	// up front also keeps a corrupt FinalTick (e.g. ^uint64(0), whose +1
	// wraps to zero below) from panicking or allocating wildly.
	if d.FinalTick > uint64(len(d.Queue.Ticks))+uint64(len(d.Queue.FirstTick)) {
		return nil, fmt.Errorf("%w: final tick %d exceeds the recorded schedule data (%d delta entries, %d threads)",
			ErrCorrupt, d.FinalTick, len(d.Queue.Ticks), len(d.Queue.FirstTick))
	}
	schedule := make([]int32, d.FinalTick+1)
	for i := range schedule {
		schedule[i] = -1
	}
	for tid, first := range d.Queue.FirstTick {
		t := first
		for t != 0 && t <= d.FinalTick {
			if schedule[t] != -1 {
				return nil, fmt.Errorf("%w: tick %d scheduled twice", ErrCorrupt, t)
			}
			schedule[t] = tid
			if t-1 >= uint64(len(d.Queue.Ticks)) {
				break
			}
			delta := d.Queue.Ticks[t-1]
			if delta == 0 {
				break
			}
			t += delta
		}
	}
	for t := uint64(1); t <= d.FinalTick; t++ {
		if schedule[t] == -1 {
			return nil, fmt.Errorf("%w: tick %d has no scheduled thread", ErrCorrupt, t)
		}
	}
	return schedule, nil
}

// Demo returns the underlying demo.
func (r *Replayer) Demo() *Demo { return r.d }

// Mode returns the replay mode the Replayer was built with.
func (r *Replayer) Mode() ReplayMode { return r.mode }

// DivergedNow reports whether a tolerant replay has already left the
// demo's constraints. Lock-free: it runs on every tick and syscall.
func (r *Replayer) DivergedNow() bool { return r.divFlag.Load() }

// OnDesync registers fn to see the first constraint the replay cannot
// enforce, as Desync is handed it: the scheduler traces it there, so it
// leaves one trace event whichever stream it belongs to. Output drift is
// not a constraint: Outcome finds it once the run has ended, and it
// leaves no event.
func (r *Replayer) OnDesync(fn func(*DesyncError)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observe = fn
}

// Desync is the replay policy, applied to de, a recorded constraint the
// run cannot enforce. Strict replay returns de, and the caller stops the
// run with it. Tolerant-record replay records its first divergence there,
// abandons the rest of the demo and returns nil, and the caller goes live,
// as it does for every decision after: from then on every stream accessor
// returns "nothing recorded".
func (r *Replayer) Desync(de *DesyncError) error {
	r.mu.Lock()
	first := r.first == nil
	if first {
		r.first = de
		r.divFlag.Store(r.mode != ReplayStrict)
	}
	observe := r.observe
	r.mu.Unlock()
	if first && observe != nil {
		observe(de)
	}
	if r.mode == ReplayStrict {
		return de
	}
	return nil
}

// Ended reports whether the replay ends with tick t: a Truncated demo is a
// prefix of its run, so its replay stops cleanly once FinalTick completes
// instead of running past the recording into constraints it never held.
func (r *Replayer) Ended(t uint64) bool { return r.end != 0 && t >= r.end }

// ScheduledAt returns the thread required to run critical section t under
// the queue strategy, or -1 past the end of the recording (or, in a
// tolerant replay, after divergence — the schedule no longer binds).
func (r *Replayer) ScheduledAt(t uint64) int32 {
	if r.schedule == nil || t >= uint64(len(r.schedule)) || r.divFlag.Load() {
		return -1
	}
	return r.schedule[t]
}

// SignalsAt consumes and returns the signals recorded for thread tid whose
// preceding Tick had value tick.
func (r *Replayer) SignalsAt(tid int32, tick uint64) []int32 {
	if r.sigsLeft.Load() == 0 || r.divFlag.Load() {
		// Empty or drained stream (or a diverged tolerant replay, whose
		// remaining constraints are abandoned): skip the lock.
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := sigKey{tid, tick}
	sigs := r.signalAt[k]
	if len(sigs) > 0 {
		delete(r.signalAt, k)
		r.sigsLeft.Add(-int64(len(sigs)))
	}
	return sigs
}

// AsyncsAt consumes and returns the async events floated to tick.
func (r *Replayer) AsyncsAt(tick uint64) []AsyncEvent {
	if r.asyncsLeft.Load() == 0 || r.divFlag.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.asyncAt[tick]
	if len(evs) > 0 {
		delete(r.asyncAt, tick)
		r.asyncsLeft.Add(-int64(len(evs)))
	}
	return evs
}

// NextSyscall consumes the next SYSCALL record. The record's issuing thread
// and kind must match the replaying call; a mismatch, or an exhausted
// stream, goes to Desync, and NextSyscall returns its verdict with
// replayed=false: the error under strict replay, nil under tolerant replay,
// telling the caller to execute the call live (as it does for every call
// after divergence).
func (r *Replayer) NextSyscall(tid int32, kind uint16, tick uint64) (rec SyscallRecord, replayed bool, err error) {
	if r.divFlag.Load() {
		return SyscallRecord{}, false, nil
	}
	r.mu.Lock()
	if r.sysCursor < len(r.d.Syscalls) {
		if rec = r.d.Syscalls[r.sysCursor]; rec.TID == tid && rec.Kind == kind {
			r.sysCursor++
			r.mu.Unlock()
			return rec, true, nil
		}
	}
	de := r.syscallDesync(tid, kind, tick)
	r.mu.Unlock()
	return SyscallRecord{}, false, r.Desync(de)
}

// syscallDesync describes thread tid issuing syscall kind where the
// SYSCALL stream's cursor holds another call or the end of the stream.
func (r *Replayer) syscallDesync(tid int32, kind uint16, tick uint64) *DesyncError {
	de := &DesyncError{Stream: "SYSCALL", Tick: tick, TID: tid, Offset: uint64(r.sysCursor)}
	if r.sysCursor < len(r.d.Syscalls) {
		rec := r.d.Syscalls[r.sysCursor]
		de.Reason = fmt.Sprintf("thread %d issued syscall %d but the recording has thread %d syscall %d",
			tid, kind, rec.TID, rec.Kind)
		de.Expected = fmt.Sprintf("thread %d syscall %d", rec.TID, rec.Kind)
		de.Observed = fmt.Sprintf("thread %d syscall %d", tid, kind)
	} else {
		de.Reason = fmt.Sprintf("thread %d issued syscall %d but the stream is exhausted", tid, kind)
		de.Expected = "end of execution (no further syscalls)"
		de.Observed = fmt.Sprintf("thread %d issued syscall %d", tid, kind)
	}
	return de
}

// SyscallCursor returns how many SYSCALL records the replay has consumed
// and how many the demo holds, the cursor position desync forensics
// reports.
func (r *Replayer) SyscallCursor() (consumed, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sysCursor, len(r.d.Syscalls)
}

// MixOutput folds replayed observable output into the replay-side hash for
// soft-desync comparison.
func (r *Replayer) MixOutput(p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hashInited {
		r.outputHash = fnvOffsetBasis
		r.hashInited = true
	}
	r.outputHash = mixHash(r.outputHash, p)
}

// leftoverLocked describes the first recorded constraint the run never
// consumed (a signal never raised, a syscall never re-issued), nil if
// there is none. finalTick is the replay's final tick counter.
func (r *Replayer) leftoverLocked(finalTick uint64) *DesyncError {
	for k := range r.signalAt {
		return &DesyncError{
			Stream: "SIGNAL", Tick: finalTick, TID: k.tid, Offset: k.tick,
			Reason:   fmt.Sprintf("recorded signal for thread %d at tick %d was never delivered", k.tid, k.tick),
			Expected: fmt.Sprintf("signal delivery to thread %d after its tick %d", k.tid, k.tick),
			Observed: "the replay finished without re-raising it",
		}
	}
	if r.sysCursor < len(r.d.Syscalls) {
		rec := r.d.Syscalls[r.sysCursor]
		return &DesyncError{
			Stream: "SYSCALL", Tick: finalTick, TID: rec.TID, Offset: uint64(r.sysCursor),
			Reason: fmt.Sprintf("%d recorded syscalls were never re-issued (next: thread %d syscall %d)",
				len(r.d.Syscalls)-r.sysCursor, rec.TID, rec.Kind),
			Expected: fmt.Sprintf("thread %d to re-issue syscall %d", rec.TID, rec.Kind),
			Observed: "the replay finished without it",
		}
	}
	return nil
}

// Cursors is the Replayer's stream-offset bookmark: how far replay has
// consumed each demo stream. It is a pure value, captured into replay
// checkpoints and compared to verify bit-identical convergence after a
// restart. (The QUEUE stream needs no cursor — its position is the tick
// counter itself.)
type Cursors struct {
	// SyscallsConsumed counts consumed SYSCALL records.
	SyscallsConsumed int
	// SignalsLeft and AsyncsLeft count the not-yet-delivered entries of
	// the SIGNAL and ASYNC streams (those streams are consumed keyed by
	// tick, not sequentially, so "remaining" is the natural cursor).
	SignalsLeft int
	AsyncsLeft  int
}

// Cursors returns the replay's current stream-offset bookmark.
func (r *Replayer) Cursors() Cursors {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Cursors{
		SyscallsConsumed: r.sysCursor,
		SignalsLeft:      int(r.sigsLeft.Load()),
		AsyncsLeft:       int(r.asyncsLeft.Load()),
	}
}

// Outcome is a replay's final verdict.
type Outcome struct {
	// Err is the run's error: the cause it stopped with or, for a strict
	// replay that completed, the hard desync of recorded constraints it
	// never consumed.
	Err error
	// Diverged is where a tolerant replay left the demo: its first
	// infeasible constraint, constraints a completed run left unconsumed,
	// or — with neither — observable output that drifted from the
	// recording. Always nil under strict replay.
	Diverged *Diverged
	// SoftDesync reports observable output that drifted from the
	// recording while every hard constraint held (§4). Strict replay only:
	// a tolerant replay's drift is its divergence.
	SoftDesync bool
}

// Outcome computes the replay's final verdict. finalTick is the
// scheduler's tick counter at termination and err the cause the run
// stopped with, nil if it completed. A completed run that left recorded
// constraints unconsumed hands the first of them to Desync. Call it once,
// after the run has finished.
func (r *Replayer) Outcome(finalTick uint64, err error) Outcome {
	oc := Outcome{Err: err}
	r.mu.Lock()
	var left *DesyncError
	if err == nil && r.first == nil {
		left = r.leftoverLocked(finalTick)
	}
	r.mu.Unlock()
	if left != nil {
		oc.Err = r.Desync(left)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	soft := r.outputHash != r.d.OutputHash
	switch {
	case r.mode == ReplayStrict:
		oc.SoftDesync = soft
	case r.first != nil:
		oc.Diverged = &Diverged{Tick: r.first.Tick, Reason: r.first.Reason}
	case soft:
		oc.Diverged = &Diverged{Tick: finalTick, Reason: "observable output diverged from the recording"}
	}
	return oc
}
