package demo

import (
	"cmp"
	"fmt"
	"slices"
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

	// signals and asyncs hold the SIGNAL and ASYNC streams in tick order.
	signals    tickSlots[int32]
	asyncs     tickSlots[AsyncEvent]
	sysCursor  int
	outputHash uint64
	// hashInited mirrors the Recorder's explicit hash-state tracking: a
	// mid-stream FNV state of 0 must not be mistaken for "no output yet".
	hashInited bool
}

// tickKey is the key a SIGNAL entry is consumed by: the thread and the
// value of its preceding Tick. ASYNC entries are keyed by tick alone (tid
// 0).
type tickKey struct {
	tid  int32
	tick uint64
}

func (a tickKey) compare(b tickKey) int {
	if c := cmp.Compare(a.tick, b.tick); c != 0 {
		return c
	}
	return cmp.Compare(a.tid, b.tid)
}

// tickSlots holds one keyed stream (SIGNAL or ASYNC), its entries grouped
// into one slot per key and the slots ordered by (tick, tid) once, when
// the Replayer is built. head is the first slot not yet consumed and next
// its tick, the stream's watermark: SignalsAt and AsyncsAt run on every
// Tick of a replay, and below next they return without the mutex or a
// lookup. next only rises, so a stale read of it is still a lower bound.
// Consuming a slot moves head past every consumed slot, so the watermark
// advances without rescanning. A slot the run never consumes (a missed
// entry) pins head, and later ticks take the locked path. Every field but
// next is guarded by the Replayer's mu.
type tickSlots[T any] struct {
	vals  []T // the entries, in slot order
	slots []tickSlot
	head  int
	left  int // unconsumed entries
	next  atomic.Uint64
}

// tickSlot is the run of vals[lo:hi] recorded under key.
type tickSlot struct {
	key    tickKey
	lo, hi int
	done   bool
}

// noTick is the watermark of a drained stream.
const noTick = ^uint64(0)

// fillTickSlots fills s with entries ordered by key, keeping their recorded
// order within a key, and groups them into slots.
func fillTickSlots[E, T any](s *tickSlots[T], entries []E, key func(E) tickKey, val func(E) T) {
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b E) int { return key(a).compare(key(b)) })
	s.vals, s.left = make([]T, len(sorted)), len(sorted)
	for i, e := range sorted {
		s.vals[i] = val(e)
		if k := key(e); i == 0 || k != s.slots[len(s.slots)-1].key {
			s.slots = append(s.slots, tickSlot{key: k, lo: i})
		}
		s.slots[len(s.slots)-1].hi = i + 1
	}
	s.setNext()
}

func (s *tickSlots[T]) setNext() {
	if s.head < len(s.slots) {
		s.next.Store(s.slots[s.head].key.tick)
	} else {
		s.next.Store(noTick)
	}
}

// below reports, without the lock, that no entry is left at tick.
func (s *tickSlots[T]) below(tick uint64) bool { return tick < s.next.Load() }

// takeLocked consumes and returns the entries recorded under k.
func (s *tickSlots[T]) takeLocked(k tickKey) []T {
	i, found := slices.BinarySearchFunc(s.slots, k, func(sl tickSlot, k tickKey) int {
		return sl.key.compare(k)
	})
	if !found || s.slots[i].done {
		return nil
	}
	sl := &s.slots[i]
	sl.done = true
	s.left -= sl.hi - sl.lo
	for s.head < len(s.slots) && s.slots[s.head].done {
		s.head++
	}
	s.setNext()
	return s.vals[sl.lo:sl.hi:sl.hi]
}

// firstLeftLocked returns the key and first entry of the earliest slot not
// yet consumed.
func (s *tickSlots[T]) firstLeftLocked() (k tickKey, first T, ok bool) {
	if s.head < len(s.slots) {
		sl := s.slots[s.head]
		return sl.key, s.vals[sl.lo], true
	}
	return k, first, false
}

// NewReplayer builds a Replayer for d running under the given mode. It
// validates the queue stream's internal consistency up front.
func NewReplayer(d *Demo, mode ReplayMode) (*Replayer, error) {
	if mode > ReplayTolerantRecord {
		return nil, fmt.Errorf("demo: unknown replay mode %d", uint8(mode))
	}
	r := &Replayer{d: d, mode: mode}
	fillTickSlots(&r.signals, d.Signals,
		func(e SignalEvent) tickKey { return tickKey{e.TID, e.Tick} },
		func(e SignalEvent) int32 { return e.Sig })
	fillTickSlots(&r.asyncs, d.Asyncs,
		func(e AsyncEvent) tickKey { return tickKey{tick: e.Tick} },
		func(e AsyncEvent) AsyncEvent { return e })
	if d.Truncated {
		r.end = d.FinalTick
	}
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
// preceding Tick had value tick, in recorded order.
func (r *Replayer) SignalsAt(tid int32, tick uint64) []int32 {
	if r.signals.below(tick) || r.divFlag.Load() {
		// Before the stream's earliest unconsumed entry (or a diverged
		// tolerant replay, whose remaining constraints are abandoned):
		// skip the lock.
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.signals.takeLocked(tickKey{tid, tick})
}

// AsyncsAt consumes and returns the async events floated to tick, in
// recorded order.
func (r *Replayer) AsyncsAt(tick uint64) []AsyncEvent {
	if r.asyncs.below(tick) || r.divFlag.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.asyncs.takeLocked(tickKey{tick: tick})
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
// consumed (the earliest signal never raised, by tick then thread, the
// earliest async event never applied, or a syscall never re-issued), nil
// if there is none. finalTick is the replay's final tick counter.
func (r *Replayer) leftoverLocked(finalTick uint64) *DesyncError {
	if k, _, ok := r.signals.firstLeftLocked(); ok {
		return &DesyncError{
			Stream: "SIGNAL", Tick: finalTick, TID: k.tid, Offset: k.tick,
			Reason:   fmt.Sprintf("recorded signal for thread %d at tick %d was never delivered", k.tid, k.tick),
			Expected: fmt.Sprintf("signal delivery to thread %d after its tick %d", k.tid, k.tick),
			Observed: "the replay finished without re-raising it",
		}
	}
	if k, ev, ok := r.asyncs.firstLeftLocked(); ok {
		return &DesyncError{
			Stream: "ASYNC", Tick: finalTick, TID: ev.TID, Offset: k.tick,
			Reason:   fmt.Sprintf("recorded %v event for thread %d at tick %d was never applied", ev.Kind, ev.TID, k.tick),
			Expected: fmt.Sprintf("%v event for thread %d at tick %d", ev.Kind, ev.TID, k.tick),
			Observed: "the replay finished without applying it",
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
		SignalsLeft:      r.signals.left,
		AsyncsLeft:       r.asyncs.left,
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
