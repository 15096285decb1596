package sched

import (
	"fmt"

	"repro/internal/demo"
	"repro/internal/obs"
)

// Asynchronous signal handling (§3.2 "Signals", §4.3, §4.5).
//
// A signal can arrive at any moment, so unlike every other scheduler entry
// point DeliverSignal is called from outside critical sections (by the
// virtual environment's external world). Its effects are therefore
// deferred: the pending-signal flag is examined by the receiving thread at
// its next visible-operation boundary (where handler entry becomes a
// visible operation of its own), and any wakeup of a disabled thread is
// floated to the next Tick as an ASYNC event so replay can reproduce the
// enabled-set change at the same logical time.

// DeliverSignal delivers signal sig to thread tid. In replay mode external
// signals are suppressed: the SIGNAL and ASYNC streams drive delivery
// instead — until a tolerant replay diverges, after which the execution is
// live again and external signals flow normally. It returns false if tid
// has already completed.
func (s *Scheduler) DeliverSignal(tid TID, sig int32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rep := s.opts.Replayer; rep != nil && !rep.DivergedNow() {
		return true
	}
	if int(tid) >= len(s.threads) {
		return false
	}
	th := s.threads[tid]
	if th.done {
		return false
	}
	th.pendingSigs = append(th.pendingSigs, sig)
	th.sigPending.Store(int32(len(th.pendingSigs)))
	if !th.enabled {
		// The thread is disabled (e.g. blocked on a mutex): re-enable it
		// so it can run its handler, recording the wakeup so that replay
		// changes the scheduler's enabled-thread pool at the same logical
		// time (§4.5 "Signal_wakeup": the event floats to the preceding
		// Tick). Wakeups mutate the enabled-thread pool, which in-critical
		// code (mutex unlock waiter choices, scheduling decisions) reads,
		// so the mutation is serialised into the gap between critical
		// sections: replay re-applies it at the exact same point, the end
		// of the Tick whose value is recorded with the event.
		for !s.stopped && s.current != NoTID && s.threads[s.current].midCritical {
			s.gapWaiters++
			s.gapCond.Wait()
			s.gapWaiters--
		}
		if s.stopped || th.done || th.enabled {
			return !th.done
		}
		s.wakeLocked(th)
		idx := -1
		if s.opts.Recorder != nil {
			idx = s.opts.Recorder.AddAsync(demo.AsyncEvent{
				Kind: demo.AsyncSignalWakeup, Tick: s.tick, TID: int32(tid),
			})
		}
		if s.tr.Enabled() {
			ev := obs.Event{Tick: s.tick, TID: int32(tid), Kind: obs.KindAsync,
				Obj: uint64(demo.AsyncSignalWakeup)}
			if idx >= 0 {
				ev.Stream = obs.StreamAsync
				ev.Offset = uint64(idx)
			}
			s.tr.Emit(ev)
		}
		if s.current == NoTID {
			// Nothing is scheduled (possibly a pending deadlock): the
			// wakeup makes progress possible again. advanceLocked delivers
			// the directed wakeup to whichever thread it chooses.
			s.advanceLocked()
		}
	}
	return true
}

// ConsumeSignal pops tid's next pending signal, if any. The runtime calls
// it mid-critical, right after Wait returns: a non-zero result means the
// critical section becomes a signal-handler entry. In record mode the entry
// is appended to the SIGNAL stream, keyed by the tick value of tid's most
// recent Tick (§4.3): "it does not matter at which precise point between
// Tick() and the following Wait() the signal arrived; it floats to the end
// of Tick()".
func (s *Scheduler) ConsumeSignal(tid TID) (int32, bool) {
	// Lock-free emptiness fast path: ConsumeSignal runs on every visible
	// operation, and almost none of them are signal deliveries. The caller
	// is the current thread mid-critical (it just returned from Wait, which
	// acquired s.mu), so reading s.threads here is ordered after any
	// ThreadNew that grew it; sigPending itself is atomic, so a racing
	// DeliverSignal is seen either here or at the thread's next boundary —
	// exactly the "signal floats to the next Tick" semantics.
	th := s.threads[tid]
	if th.sigPending.Load() == 0 {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(th.pendingSigs) == 0 {
		return 0, false
	}
	s.assertCurrentLocked(tid, "ConsumeSignal")
	sig := th.pendingSigs[0]
	// Shift in place rather than re-slicing forward: the backing array is
	// reused across the run, so delivering signals never reallocates after
	// the first append.
	n := copy(th.pendingSigs, th.pendingSigs[1:])
	th.pendingSigs = th.pendingSigs[:n]
	th.sigPending.Store(int32(n))
	if s.opts.Recorder != nil {
		idx := s.opts.Recorder.AddSignal(demo.SignalEvent{
			TID: int32(tid), Tick: th.lastTick, Sig: sig,
		})
		if s.tr.Enabled() {
			s.tr.Emit(obs.Event{Tick: th.lastTick, TID: int32(tid), Kind: obs.KindSignal,
				Obj: uint64(uint32(sig)), Stream: obs.StreamSignal, Offset: uint64(idx)})
		}
	}
	return sig, true
}

// Shutdown aborts all remaining live threads (process-exit semantics) and
// returns the number that were still live. Safe to call multiple times.
func (s *Scheduler) Shutdown() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.live
	if n > 0 && !s.stopped {
		s.failLocked(ErrShutdown)
	}
	return n
}

// RecentSchedule returns the last scheduling decisions, oldest first — the
// flight recorder used to diagnose replay desynchronisations.
func (s *Scheduler) RecentSchedule() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(len(s.recent))
	var out []string
	start := uint64(1)
	if s.tick > n {
		start = s.tick - n + 1
	}
	for t := start; t <= s.tick; t++ {
		e := s.recent[t%n]
		if e.Tick == t {
			out = append(out, fmt.Sprintf("tick %d: thread %d", e.Tick, e.TID))
		}
	}
	return out
}
