package sched

import "repro/internal/demo"

// Mutex and condition-variable bookkeeping (§3.2). The runtime owns the
// actual lock state (held/owner); the scheduler only tracks which threads
// are blocked on what, so that unlock and signal operations can re-enable
// the right thread. All methods here are called mid-critical by the
// current thread.

// MutexLockFail is called by tid after a failed trylock inside the
// instrumented lock loop (paper Fig. 4): tid disables itself and records
// that it is waiting on mutex m. It will block in its next Wait until
// MutexUnlock (or a signal wakeup) re-enables it.
func (s *Scheduler) MutexLockFail(tid TID, m uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "MutexLockFail")
	th := s.threads[tid]
	th.enabled = false
	th.waitMutex = m
	if s.mutexWaiters == nil {
		s.mutexWaiters = make(map[uint64][]TID)
	}
	s.mutexWaiters[m] = append(s.mutexWaiters[m], tid)
}

// MutexUnlock is called by tid when releasing mutex m: it re-enables one
// thread blocked on m, chosen FIFO under the queue strategy and uniformly
// at random otherwise (§3.2). There is no Wait/Tick inside this function;
// another thread may still acquire the mutex before the woken thread
// retries its trylock, in which case the woken thread simply blocks again.
func (s *Scheduler) MutexUnlock(tid TID, m uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "MutexUnlock")
	for len(s.mutexWaiters[m]) > 0 {
		waiters := s.mutexWaiters[m]
		idx := 0
		if s.opts.Kind != demo.StrategyQueue { // anything but queue: random choice
			idx = s.rng.Intn(len(waiters))
		}
		w := waiters[idx]
		s.mutexWaiters[m] = append(waiters[:idx], waiters[idx+1:]...)
		if len(s.mutexWaiters[m]) == 0 {
			delete(s.mutexWaiters, m)
		}
		th := s.threads[w]
		if !th.done && !th.enabled && th.waitMutex == m {
			s.enableLocked(th)
			th.waitMutex = 0
			return
		}
		// Stale entry (the thread was woken by other means); keep looking
		// so the unlock's wakeup is not lost.
	}
}

// CondWait registers tid as waiting on condition variable c (paper Fig. 5).
// For an untimed wait the thread is disabled: it will block in the
// mutex-reacquire loop until CondSignal/CondBroadcast re-enables it. For a
// timed wait the thread stays enabled — from the scheduler's perspective
// the wakeup timer is nondeterministic, so a timed waiter may reacquire the
// mutex at any moment — but it is still registered so it can "eat" a
// signal (§3.2).
func (s *Scheduler) CondWait(tid TID, c uint64, timed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "CondWait")
	th := s.threads[tid]
	th.waitCond = c
	th.condTimed = timed
	th.condTaken = false
	if !timed {
		th.enabled = false
	}
	if s.condWaiters == nil {
		s.condWaiters = make(map[uint64][]TID)
	}
	s.condWaiters[c] = append(s.condWaiters[c], tid)
}

// CondSignal wakes one thread waiting on c, FIFO under the queue strategy
// and uniformly at random otherwise. A timed waiter that is chosen "eats"
// the signal without needing re-enabling. Signals with no waiters are lost,
// as in pthreads.
func (s *Scheduler) CondSignal(tid TID, c uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "CondSignal")
	s.condSignalOneLocked(c)
}

func (s *Scheduler) condSignalOneLocked(c uint64) {
	waiters := s.condWaiters[c]
	if len(waiters) == 0 {
		return
	}
	idx := 0
	if s.opts.Kind != demo.StrategyQueue {
		idx = s.rng.Intn(len(waiters))
	}
	w := waiters[idx]
	s.condWaiters[c] = append(waiters[:idx], waiters[idx+1:]...)
	if len(s.condWaiters[c]) == 0 {
		delete(s.condWaiters, c)
	}
	s.wakeCondWaiterLocked(w, c)
}

func (s *Scheduler) wakeCondWaiterLocked(w TID, c uint64) {
	th := s.threads[w]
	if th.done || th.waitCond != c {
		return
	}
	th.condTaken = true
	th.waitCond = 0
	if !th.enabled {
		s.enableLocked(th)
	}
}

// CondBroadcast wakes every thread waiting on c.
func (s *Scheduler) CondBroadcast(tid TID, c uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertCurrentLocked(tid, "CondBroadcast")
	waiters := s.condWaiters[c]
	delete(s.condWaiters, c)
	for _, w := range waiters {
		s.wakeCondWaiterLocked(w, c)
	}
}

// CondTook reports (and consumes) whether tid received a cond signal since
// it registered with CondWait. The runtime calls this after reacquiring the
// mutex to distinguish a signalled return from a timeout or a spurious
// (OS-signal-induced) wakeup.
func (s *Scheduler) CondTook(tid TID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	th := s.threads[tid]
	took := th.condTaken
	th.condTaken = false
	return took
}

// CondDeregister removes tid from c's waiter list if still registered, so
// that a waiter returning by timeout or spurious wakeup cannot eat a later
// signal.
func (s *Scheduler) CondDeregister(tid TID, c uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	th := s.threads[tid]
	if th.waitCond != c {
		return
	}
	th.waitCond = 0
	waiters := s.condWaiters[c]
	for i, w := range waiters {
		if w == tid {
			s.condWaiters[c] = append(waiters[:i], waiters[i+1:]...)
			break
		}
	}
	if len(s.condWaiters[c]) == 0 {
		delete(s.condWaiters, c)
	}
}
