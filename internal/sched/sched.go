// Package sched implements the paper's controlled scheduler (§3): a
// cooperative protocol in which threads of the program under test serialise
// their visible operations through Wait()/Tick() critical sections while
// invisible regions run in parallel, plus the record/replay hooks of §4.
//
// There is no overarching scheduler thread. Scheduling decisions live in a
// designated piece of shared state (the Scheduler struct) that threads
// update cooperatively:
//
//	Wait(tid) — block until the scheduler activates tid.
//	Tick(tid) — complete tid's visible operation and choose the next
//	            thread to activate.
//
// The combination of a visible operation and its Wait/Tick pair is a
// critical section; exactly one thread is inside a critical section at any
// moment, and all nondeterministic choices (strategy decisions, mutex wake
// choices, memory-model value choices via Rand) are made inside critical
// sections so that replay reproduces them exactly.
package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/vclock"
)

// TID identifies a thread under test; an alias of the race detector's
// thread id so the two layers share identities. TID 0 is the main thread.
type TID = vclock.TID

// NoTID is the sentinel for "no thread".
const NoTID TID = -1

// ErrShutdown is the abort cause delivered to threads that are still live
// when the runtime shuts down (the process-exit-kills-threads semantics of
// the programs the paper studies).
var ErrShutdown = errors.New("sched: runtime shut down")

// ErrReplayEnd is the stop cause when a replay reaches the end of a
// truncated demo (a crash-recovered or minimized prefix; see
// demo.Replayer.Ended). It is a clean stop, not a desynchronisation — the
// replay was synchronised for every recorded tick.
var ErrReplayEnd = errors.New("sched: replay reached the end of the recorded prefix")

// Abort is the panic payload used to unwind a thread of the program under
// test when the scheduler stops (desync, deadlock, stall, shutdown). The
// runtime's goroutine wrappers recover it.
type Abort struct{ Err error }

// DeadlockError reports that every live thread was disabled: a genuine
// deadlock in the program under test.
type DeadlockError struct {
	Tick    uint64
	Blocked []string
	// Held names each held lock and its owner. The scheduler knows
	// mutexes by id only, so the runtime fills it once the run is over.
	Held []string
}

func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("sched: deadlock at tick %d: all live threads blocked [%s]",
		e.Tick, strings.Join(e.Blocked, ", "))
	if len(e.Held) > 0 {
		msg += "; held: " + strings.Join(e.Held, ", ")
	}
	return msg
}

// StalledError reports that the execution exceeded the configured tick
// budget, the guard against runaway schedules in tests and benchmarks.
type StalledError struct{ Tick uint64 }

func (e *StalledError) Error() string {
	return fmt.Sprintf("sched: execution exceeded %d ticks", e.Tick)
}

// Options configures a Scheduler.
type Options struct {
	// Kind selects the scheduling strategy.
	Kind demo.Strategy
	// Seed1, Seed2 initialise the PRNG (the paper seeds with two rdtsc
	// calls; callers supply the two words).
	Seed1, Seed2 uint64
	// Recorder, if non-nil, receives the QUEUE/SIGNAL/ASYNC streams.
	Recorder *demo.Recorder
	// Replayer, if non-nil, drives the schedule and event delivery from a
	// demo, and its policy decides what a constraint the run cannot
	// enforce does (demo.Replayer.Desync). Recorder and Replayer are
	// mutually exclusive, with one exception: a ReplayTolerantRecord
	// replayer runs alongside a Recorder, which re-records the whole
	// execution (replayed prefix and divergent suffix alike) into a new
	// strict-replayable demo.
	Replayer *demo.Replayer
	// MaxTicks aborts the execution after this many critical sections
	// (0 = unlimited).
	MaxTicks uint64
	// PCTDepth is the bug depth d for the PCT strategy (priority change
	// points = d-1). Ignored by other strategies; defaults to 3.
	PCTDepth int
	// PCTLength is PCT's a-priori estimate of execution length in visible
	// operations, used to place change points. Defaults to 4096.
	PCTLength uint64
	// Trace, if non-nil, receives scheduler trace events (decisions, async
	// deliveries, desyncs) and the per-operation events passed to
	// TickEvent. A nil or disabled tracer costs one atomic load per Tick.
	Trace *obs.Tracer
	// Metrics, if non-nil, receives scheduler counters (decisions by
	// strategy).
	Metrics *obs.Metrics
	// OnStop, if non-nil, is invoked exactly once when the scheduler stops
	// (Stop, desync, deadlock, stall, shutdown), with the stopping error.
	// It runs with the scheduler lock held, so it must not call back into
	// the Scheduler; the runtime uses it to propagate the stop into the
	// virtual environment's waiter queues so threads parked there unblock.
	OnStop func(error)
}

type thread struct {
	id          TID
	name        string
	enabled     bool
	done        bool
	inWait      bool
	midCritical bool
	lastTick    uint64

	// park is the thread's private gate: the thread blocks on it inside
	// Wait, and exactly the scheduling decision that activates the thread
	// signals it — a Tick is O(1) wakeups regardless of how many threads
	// are parked. Only the owning thread ever waits on it. Allocated lazily
	// on the thread's first arrival at Wait (not at creation), so gate cost
	// tracks threads that actually run, not the peak thread count; nil means
	// the thread has never parked and cannot be blocked in Wait.
	park *sync.Cond

	waitMutex uint64 // nonzero if disabled waiting for this mutex
	waitCond  uint64 // nonzero if registered as waiter on this condvar
	condTaken bool   // received a cond signal since registering

	waitJoin    TID // target of a blocking join, NoTID otherwise
	joinWaiters []TID

	pendingSigs []int32
	// sigPending mirrors len(pendingSigs) atomically, so ConsumeSignal's
	// per-visible-op emptiness check — the overwhelmingly common case —
	// avoids taking the scheduler lock.
	sigPending atomic.Int32

	// Queue-strategy bookkeeping: queued marks the thread as holding an
	// arrival slot (stamped queueSeq); inRunq marks it as present in the
	// runnable queue (enabled queued threads only).
	queued   bool
	inRunq   bool
	queueSeq uint64

	pctPriority uint64 // PCT only; higher runs first
}

// Scheduler is the shared scheduling state. All exported methods are safe
// for concurrent use by the threads under test and the external world.
type Scheduler struct {
	mu sync.Mutex

	// gapCond parks external-world callers (signal delivery) that must
	// wait for the gap between critical sections; it is made at the first
	// such wait. Tick signals it only when gapWaiters is nonzero, so the
	// common no-signal path pays one integer check instead of a broadcast.
	gapCond    *sync.Cond
	gapWaiters int

	opts     Options
	rng      *prng.Source
	strategy strategy

	threads []*thread
	live    int
	current TID
	tick    uint64

	// runq is the queue strategy's runnable queue: enabled queued threads
	// in arrival order, consumed from runqHead and compacted to the front
	// once the head passes half its length. Disabled queued threads are
	// tracked on the thread itself (queued/queueSeq) and re-inserted by
	// onEnabled, so scheduling decisions never scan past them. queueSeq is
	// the arrival-order stamp issued to each enqueue.
	runq     []TID
	runqHead int
	queueSeq uint64

	// mutexWaiters and condWaiters track which threads are blocked on
	// which mutex or condition variable, in arrival order. Each is made
	// when a thread first blocks on one.
	mutexWaiters map[uint64][]TID
	condWaiters  map[uint64][]TID

	stopped  bool
	stopErr  error
	finished bool

	// tr receives trace events; decisions counts strategy decisions. Both
	// are nil-safe, so the untraced path pays only the checks inside them.
	tr        *obs.Tracer
	decisions *obs.Counter

	// recent is a flight recorder of the last scheduling decisions,
	// surfaced in desynchronisation diagnostics: tick t's thread sits in
	// slot t%64, so the slot gives the tick back.
	recent [64]TID
}

// New constructs a Scheduler with a registered main thread (TID 0) that is
// the initial current thread.
func New(opts Options) (*Scheduler, error) {
	if opts.Recorder != nil && opts.Replayer != nil &&
		opts.Replayer.Mode() != demo.ReplayTolerantRecord {
		return nil, errors.New("sched: cannot both record and replay (except under tolerant-record replay)")
	}
	if opts.Replayer != nil && opts.Replayer.Demo().Strategy != opts.Kind {
		return nil, fmt.Errorf("sched: demo was recorded with strategy %v, not %v",
			opts.Replayer.Demo().Strategy, opts.Kind)
	}
	s := &Scheduler{
		opts: opts,
		rng:  prng.New(opts.Seed1, opts.Seed2),
		tr:   opts.Trace,
	}
	if opts.Metrics != nil {
		s.decisions = opts.Metrics.Counter("sched.decisions." + opts.Kind.String())
	}
	if opts.Replayer != nil && opts.Trace != nil {
		// Every constraint a replay cannot enforce reaches the
		// Replayer's policy, so tracing it there leaves one event per
		// run whichever stream it belongs to.
		opts.Replayer.OnDesync(func(de *demo.DesyncError) {
			if s.tr.Enabled() {
				s.tr.Emit(obs.Event{Tick: de.Tick, TID: de.TID, Kind: obs.KindDesync,
					Stream: obs.StreamFromName(de.Stream), Offset: de.Offset})
			}
		})
	}
	switch opts.Kind {
	case demo.StrategyRandom:
		s.strategy = &randomStrategy{}
	case demo.StrategyQueue:
		s.strategy = &queueStrategy{}
	case demo.StrategyPCT, demo.StrategyDelay:
		d, n, err := DepthLength(opts.Kind, opts.PCTDepth, opts.PCTLength)
		if err != nil {
			return nil, err
		}
		if opts.Kind == demo.StrategyPCT {
			s.strategy = newPCTStrategy(s, d, n)
		} else {
			s.strategy = newDelayStrategy(s, d, n) // the depth knob is the delay budget
		}
	default:
		return nil, fmt.Errorf("sched: unknown strategy %v", opts.Kind)
	}
	main := &thread{id: 0, name: "main", enabled: true, waitJoin: NoTID}
	s.threads = append(s.threads, main)
	s.live = 1
	s.current = 0
	s.strategy.onNew(s, main)
	return s, nil
}

// DepthLength resolves the pct and delay strategies' depth and length,
// 3 and 4096 when unset. pct draws depth−1 distinct change-point ticks
// from 1..length and delay draws depth of them, so a length with fewer
// ticks than that is an error: the draw would never end.
func DepthLength(kind demo.Strategy, depth int, length uint64) (int, uint64, error) {
	if depth <= 0 {
		depth = 3
	}
	if length == 0 {
		length = 4096
	}
	points := uint64(depth)
	if kind == demo.StrategyPCT {
		points--
	}
	if points > length {
		return 0, 0, fmt.Errorf("sched: %v depth %d needs %d distinct ticks, more than length %d holds",
			kind, depth, points, length)
	}
	return depth, length, nil
}

// Rand returns the scheduler's PRNG. It must only be used from inside a
// critical section (between Wait and Tick) so that draw order is
// deterministic under replay.
func (s *Scheduler) Rand() *prng.Source { return s.rng }

// TickCount returns the number of completed critical sections.
func (s *Scheduler) TickCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tick
}

// Err returns the error that stopped the scheduler, if any.
func (s *Scheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopErr
}

func (s *Scheduler) abortLocked() {
	panic(Abort{s.stopErr})
}

func (s *Scheduler) failLocked(err error) {
	if s.stopped {
		return
	}
	s.stopped = true
	s.stopErr = err
	// Stop is the one event that must reach every gate: wake each thread's
	// private park and any external gap waiters explicitly. A nil gate
	// belongs to a thread that has never parked, so there is nothing to wake.
	for _, th := range s.threads {
		if th.park != nil {
			th.park.Signal()
		}
	}
	if s.gapCond != nil {
		s.gapCond.Broadcast()
	}
	if s.opts.OnStop != nil {
		s.opts.OnStop(err)
	}
}

// Stop aborts the execution: every thread blocked in (or next arriving at)
// Wait unwinds with an Abort carrying err.
func (s *Scheduler) Stop(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(err)
}

// Wait blocks tid until the scheduler activates it. It must be called
// immediately before each visible operation.
func (s *Scheduler) Wait(tid TID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	th := s.threads[tid]
	if th.park == nil {
		// First arrival: allocate the gate now, before inWait is set, so
		// every path that may signal it (unparkCurrentLocked via the
		// advance below, failLocked) finds it present.
		th.park = sync.NewCond(&s.mu)
	}
	th.inWait = true
	s.strategy.onWait(s, th)
	if s.current == NoTID {
		s.advanceLocked()
	}
	for !(s.current == tid && th.enabled) {
		if s.stopped {
			th.inWait = false
			s.abortLocked()
		}
		th.park.Wait()
	}
	if s.stopped {
		th.inWait = false
		s.abortLocked()
	}
	th.inWait = false
	th.midCritical = true
}

// Tick completes tid's visible operation: it advances the logical clock,
// emits record streams, delivers floated replay events, and chooses the
// next thread to activate. It returns the completed operation's tick
// value.
func (s *Scheduler) Tick(tid TID) uint64 {
	return s.TickEvent(tid, obs.Event{})
}

// TickEvent is Tick with an operation trace event attached: when tracing
// is on, ev (its Kind, Obj, Arg, Stream and Offset filled in by the
// caller) is stamped with the tick and thread id and emitted inside the
// scheduler's critical region, so the trace's event order is exactly the
// tick order. An ev with KindNone is discarded.
func (s *Scheduler) TickEvent(tid TID, ev obs.Event) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	th := s.threads[tid]
	if s.current != tid || !th.midCritical {
		panic(fmt.Sprintf("sched: protocol violation: Tick by thread %d (current %d, midCritical %v)",
			tid, s.current, th.midCritical))
	}
	s.tick++
	t := s.tick
	th.lastTick = t
	th.midCritical = false
	if s.gapWaiters > 0 {
		// An external caller (signal delivery) is waiting for the gap
		// between critical sections, which starts now.
		s.gapCond.Broadcast()
	}
	s.recent[t%uint64(len(s.recent))] = tid

	if rec := s.opts.Recorder; rec != nil {
		if s.opts.Kind == demo.StrategyQueue {
			rec.NoteSchedule(int32(tid), t)
		} else {
			// Other strategies record no QUEUE stream, but the
			// recorder still latches the tick for its footer candidates.
			rec.NoteTick(t)
		}
	}
	if ev.Kind != obs.KindNone && s.tr.Enabled() {
		ev.Tick = t
		ev.TID = int32(tid)
		if ev.Stream == obs.StreamNone && s.opts.Kind == demo.StrategyQueue &&
			(s.opts.Recorder != nil || s.opts.Replayer != nil) {
			// The operation itself is a QUEUE stream entry: tick t's slot.
			ev.Stream = obs.StreamQueue
			ev.Offset = t
		}
		s.tr.Emit(ev)
	}
	if s.opts.MaxTicks > 0 && t > s.opts.MaxTicks {
		s.failLocked(&StalledError{t})
		s.abortLocked()
	}

	// Replay: signals recorded against this thread's Tick at t are raised
	// "at the end of Tick()" (§4.3): queue them as pending so the thread
	// enters its handler at the next visible-operation boundary.
	if rep := s.opts.Replayer; rep != nil {
		for _, sig := range rep.SignalsAt(int32(tid), t) {
			th.pendingSigs = append(th.pendingSigs, sig)
			th.sigPending.Store(int32(len(th.pendingSigs)))
			if s.tr.Enabled() {
				s.tr.Emit(obs.Event{Tick: t, TID: int32(tid), Kind: obs.KindSignal,
					Obj: uint64(uint32(sig)), Stream: obs.StreamSignal})
			}
		}
	}

	// Replay: asynchronous events recorded with tick t occurred in the
	// window after Tick t's decision and before the next critical section
	// (signal wakeups of disabled threads, forced reschedules).
	//
	// Under the random strategy they must be applied AFTER this Tick's
	// scheduling decision, so the enabled-thread pool and the PRNG draw
	// sequence evolve exactly as during recording (§4.5). Under the queue
	// strategy the demo dictates the schedule outright — no draws — so
	// wakeups are applied BEFORE the decision: the recorded schedule may
	// place the woken thread at the very next tick, and deciding first
	// would see it still disabled and falsely hard-desynchronise.
	rep := s.opts.Replayer
	queueReplay := rep != nil && s.opts.Kind == demo.StrategyQueue
	if queueReplay {
		for _, aev := range rep.AsyncsAt(t) {
			s.applyAsyncLocked(aev)
		}
	}

	// A truncated demo's recording ends here: stop cleanly before asking
	// for a scheduling decision the recording cannot answer. Placed after
	// this tick's replay deliveries so the leftover and soft-desync checks
	// of the replay's Outcome stay meaningful for the prefix.
	if rep != nil && rep.Ended(t) {
		s.failLocked(ErrReplayEnd)
		s.abortLocked()
	}

	// The scheduling decision for the next critical section.
	s.current = NoTID
	s.advanceLocked()

	if rep != nil && !queueReplay {
		for _, aev := range rep.AsyncsAt(t) {
			s.applyAsyncLocked(aev)
		}
	}
	return t
}

func (s *Scheduler) applyAsyncLocked(ev demo.AsyncEvent) {
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Tick: ev.Tick, TID: ev.TID, Kind: obs.KindAsync,
			Obj: uint64(ev.Kind), Stream: obs.StreamAsync})
	}
	if rec := s.opts.Recorder; rec != nil {
		// Tolerant-record replay: replayed async deliveries re-enter the
		// new recording, so the divergent demo is complete from tick 1.
		rec.AddAsync(ev)
	}
	switch ev.Kind {
	case demo.AsyncSignalWakeup, demo.AsyncTimerWakeup:
		th := s.threads[ev.TID]
		if !th.done && !th.enabled {
			s.wakeLocked(th)
			// Mirror the record-side path, which advances only when no
			// thread was scheduled at the moment the wakeup occurred.
			if s.current == NoTID {
				s.advanceLocked()
			}
		}
	case demo.AsyncReschedule:
		// Re-run the scheduling decision unconditionally: the recorded
		// reschedule consumed a strategy decision (and, for the random
		// strategy, a PRNG draw), so replay must consume one too even if
		// the bypassed thread has since arrived at Wait.
		s.current = NoTID
		s.advanceLocked()
	}
}

// enableLocked re-enables a disabled thread and notifies the strategy, so
// that a queued thread re-enters the runnable queue at its arrival
// position. Every site that flips enabled to true must go through it.
func (s *Scheduler) enableLocked(th *thread) {
	th.enabled = true
	s.strategy.onEnabled(s, th)
}

// runqPushLocked appends th to the runnable queue (arrival stamps are
// issued in increasing order, so appends keep it sorted).
func (s *Scheduler) runqPushLocked(th *thread) {
	s.runq = append(s.runq, th.id)
	th.inRunq = true
}

// runqInsertLocked inserts a re-enabled queued thread at its arrival
// position. Re-wakes of queued threads are rare (they only arise when queue
// replay runs a thread the strategy never dequeued), so a linear scan for
// the insertion point is fine.
func (s *Scheduler) runqInsertLocked(th *thread) {
	i := s.runqHead
	for i < len(s.runq) && s.threads[s.runq[i]].queueSeq < th.queueSeq {
		i++
	}
	s.runq = append(s.runq, 0)
	copy(s.runq[i+1:], s.runq[i:])
	s.runq[i] = th.id
	th.inRunq = true
}

// wakeLocked enables a disabled thread and clears its blocked-on state,
// including its entry in any mutex waiter list (the thread will re-add
// itself via MutexLockFail if its retried trylock fails).
func (s *Scheduler) wakeLocked(th *thread) {
	s.enableLocked(th)
	if m := th.waitMutex; m != 0 {
		waiters := s.mutexWaiters[m]
		for i, w := range waiters {
			if w == th.id {
				s.mutexWaiters[m] = append(waiters[:i], waiters[i+1:]...)
				break
			}
		}
		if len(s.mutexWaiters[m]) == 0 {
			delete(s.mutexWaiters, m)
		}
		th.waitMutex = 0
	}
	th.waitJoin = NoTID
	// Cond registration is deliberately kept: a woken thread can still
	// "eat" a cond signal until it deregisters (§3.2).
}

// advanceLocked chooses the next current thread when none is set.
func (s *Scheduler) advanceLocked() {
	if s.stopped || s.finished || s.current != NoTID {
		return
	}
	if s.live == 0 {
		s.finished = true
		return
	}
	// Queue replay: the demo dictates the thread for the next tick — when
	// that thread is runnable. An infeasible demand goes to the Replayer's
	// policy: a strict replay stops, a tolerant one has diverged, and the
	// live strategy decides this tick and every later one (ScheduledAt
	// returns -1 from then on, as it does past the end of the recording).
	if rep := s.opts.Replayer; rep != nil && s.opts.Kind == demo.StrategyQueue {
		if want := rep.ScheduledAt(s.tick + 1); want >= 0 {
			th := s.threads[want]
			if !th.done && th.enabled {
				s.current = TID(want)
				s.noteDecisionLocked()
				s.unparkCurrentLocked()
				return
			}
			why := fmt.Sprintf("thread %d is blocked (%s)", want, s.blockedWhyLocked(th))
			if th.done {
				why = fmt.Sprintf("thread %d has already exited", want)
			}
			if err := rep.Desync(&demo.DesyncError{
				Stream: "QUEUE", Tick: s.tick + 1, TID: want, Offset: s.tick + 1,
				Reason:   fmt.Sprintf("scheduled %s", why),
				Expected: fmt.Sprintf("thread %d runnable at tick %d", want, s.tick+1),
				Observed: why,
			}); err != nil {
				s.failLocked(err)
				return
			}
		}
	}
	next := s.strategy.next(s)
	if next == NoTID {
		// Either every live thread is disabled (a deadlock, unless an
		// external signal arrives to rescue it — the idle watchdog
		// decides after a grace period), or some threads are enabled but
		// have not yet arrived at Wait (queue strategy): the next arrival
		// becomes current via Wait's advance call.
		return
	}
	s.current = next
	s.noteDecisionLocked()
	s.unparkCurrentLocked()
}

// unparkCurrentLocked delivers the directed wakeup to the thread just
// chosen by advanceLocked. If the thread is parked in Wait this is the one
// signal that releases it; if it has not arrived at Wait yet the signal is
// a no-op and the thread sees s.current == itself on arrival. A thread
// woken here and then superseded (an AsyncReschedule re-running the
// decision) simply rechecks its predicate and parks again.
func (s *Scheduler) unparkCurrentLocked() {
	if th := s.threads[s.current]; th.inWait {
		th.park.Signal()
	}
}

// noteDecisionLocked counts and traces the scheduling decision that just
// set s.current for tick s.tick+1.
func (s *Scheduler) noteDecisionLocked() {
	s.decisions.Add(1)
	if s.tr.Enabled() {
		s.tr.Emit(obs.Event{Tick: s.tick + 1, TID: int32(s.current), Kind: obs.KindSchedule,
			Obj: uint64(s.opts.Kind), Arg: int64(s.current)})
	}
}

// blockedWhyLocked renders why th cannot run, for desync diagnostics.
func (s *Scheduler) blockedWhyLocked(th *thread) string {
	switch {
	case th.waitMutex != 0:
		return fmt.Sprintf("waiting on mutex %#x", th.waitMutex)
	case th.waitCond != 0:
		return fmt.Sprintf("waiting on cond %#x", th.waitCond)
	case th.waitJoin != NoTID:
		return fmt.Sprintf("joining thread %d", th.waitJoin)
	default:
		return "disabled"
	}
}

// Idle reports whether the execution can make no progress on its own:
// live threads remain but none is enabled and none is scheduled. The
// runtime's watchdog declares deadlock when this persists across a grace
// period (an external signal can still rescue an idle state, so declaring
// immediately would be premature).
func (s *Scheduler) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.stopped && !s.finished && s.live > 0 &&
		s.current == NoTID && !s.anyEnabledLocked()
}

// DeclareDeadlock stops the execution with a DeadlockError if it is still
// idle. Called by the runtime's watchdog.
func (s *Scheduler) DeclareDeadlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.finished || s.live == 0 ||
		s.current != NoTID || s.anyEnabledLocked() {
		return
	}
	s.failLocked(&DeadlockError{Tick: s.tick, Blocked: s.blockedNamesLocked()})
}

func (s *Scheduler) anyEnabledLocked() bool {
	for _, th := range s.threads {
		if !th.done && th.enabled {
			return true
		}
	}
	return false
}

func (s *Scheduler) blockedNamesLocked() []string {
	var names []string
	for _, th := range s.threads {
		if th.done {
			continue
		}
		names = append(names, fmt.Sprintf("%s(t%d): %s", th.name, th.id, s.blockedWhyLocked(th)))
	}
	return names
}

// ForceReschedule is called by the runtime's background rescheduler when
// the current thread has spent too long in an invisible region. It is a
// no-op in replay mode, where reschedules come from the ASYNC stream —
// except once a tolerant replay has diverged, at which point the live
// suffix needs its liveness guarantee back (and, under tolerant-record,
// the forced reschedule is recorded like any live one).
func (s *Scheduler) ForceReschedule() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.finished {
		return
	}
	if rep := s.opts.Replayer; rep != nil && !rep.DivergedNow() {
		return
	}
	if s.tick == 0 {
		// Before the first Tick only the main thread exists (every spawn
		// is a visible operation), so there is nothing to switch to, and
		// an ASYNC entry at tick 0 would float to a Tick replay never
		// runs: its PRNG draw would be one replay cannot repeat.
		return
	}
	if s.current != NoTID {
		th := s.threads[s.current]
		if th.inWait || th.midCritical {
			return
		}
	} else {
		return
	}
	old := s.current
	idx := -1
	if s.opts.Recorder != nil {
		idx = s.opts.Recorder.AddAsync(demo.AsyncEvent{
			Kind: demo.AsyncReschedule, Tick: s.tick, TID: int32(old),
		})
	}
	if s.tr.Enabled() {
		ev := obs.Event{Tick: s.tick, TID: int32(old), Kind: obs.KindAsync,
			Obj: uint64(demo.AsyncReschedule)}
		if idx >= 0 {
			ev.Stream = obs.StreamAsync
			ev.Offset = uint64(idx)
		}
		s.tr.Emit(ev)
	}
	s.current = NoTID
	s.advanceLocked()
}

// Finished reports whether every thread has completed.
func (s *Scheduler) Finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// ThreadSettled reports whether tid has run as far as it can on its own:
// it has completed, or it is disabled waiting for another thread. Used by
// the runtime's spawn-settling delay, which models the head start a
// pthread-created thread has over later siblings.
func (s *Scheduler) ThreadSettled(tid TID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	th := s.threads[tid]
	return th.done || !th.enabled
}

// ThreadCount returns the total number of threads ever created.
func (s *Scheduler) ThreadCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.threads)
}

// ThreadState is one thread's scheduler-visible state, as captured into a
// replay checkpoint: identity, liveness, the blocked-on relation and the
// tick of the thread's most recently completed critical section. It is a
// pure value — deterministic across replays of the same demo — so two
// checkpoints taken at the same tick of two replays compare bit-identical.
type ThreadState struct {
	TID      TID
	Name     string
	Done     bool
	Enabled  bool
	LastTick uint64
	// Blocked names what a disabled thread is waiting on ("waiting on
	// mutex 0x1", "joining thread 2"), empty when enabled or done.
	Blocked string
}

func (t ThreadState) String() string {
	status := "runnable"
	switch {
	case t.Done:
		status = "exited"
	case !t.Enabled:
		status = "blocked: " + t.Blocked
	}
	return fmt.Sprintf("t%-3d %-12s last tick %-6d %s", t.TID, t.Name, t.LastTick, status)
}

// ThreadStates returns the state of every thread created so far, in tid
// order. Meaningful as a checkpoint component only while the execution is
// quiesced (paused inside a critical section, or finished); calling it
// mid-flight returns a best-effort snapshot.
func (s *Scheduler) ThreadStates() []ThreadState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ThreadState, 0, len(s.threads))
	for _, th := range s.threads {
		ts := ThreadState{
			TID: th.id, Name: th.name, Done: th.done,
			Enabled: th.enabled, LastTick: th.lastTick,
		}
		if !th.done && !th.enabled {
			ts.Blocked = s.blockedWhyLocked(th)
		}
		out = append(out, ts)
	}
	return out
}

// ThreadNames returns the debug name of every thread created so far,
// keyed by tid — the labels the Chrome trace exporter attaches to tracks.
func (s *Scheduler) ThreadNames() map[int32]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make(map[int32]string, len(s.threads))
	for _, th := range s.threads {
		names[int32(th.id)] = th.name
	}
	return names
}
